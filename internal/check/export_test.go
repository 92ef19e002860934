package check

// Test-only exports for the external test package, which optimizes programs
// through packages that import check.
var (
	ContainmentCorpus = containmentCorpus
	EdgeContainment   = edgeContainment
)
