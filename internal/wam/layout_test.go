package wam

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestInstrLayout pins the code word: at most 56 bytes and free of
// pointers, so a module's code array is one flat allocation that the
// garbage collector never scans. Indexing operands belong in
// Module.Switches.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 56 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want <= 56", n)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: Instr must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Instr", reflect.TypeOf(Instr{}))
}
