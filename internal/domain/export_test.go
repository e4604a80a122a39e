package domain

// LubPatternGraph exposes the sharing-aware graph lub, so the
// differential tests can hold the share-free tree path to it.
var LubPatternGraph = lubGraph
