package compiler

import "awam/internal/term"

// CodeBound is the code-array capacity CompileWith allocates for prog.
func CodeBound(tab *term.Tab, prog *term.Program) (int, error) {
	prog, err := ExpandedProgram(tab, prog)
	if err != nil {
		return 0, err
	}
	return codeBound(prog), nil
}
