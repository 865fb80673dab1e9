package sm

// SetReferenceEngine makes every SM built from now on a reference engine
// (noWakeList) or, with false, a production one again. It exists for the
// external test package, which profiles whole applications through the root
// package and so never holds an SM to set the field on.
func SetReferenceEngine(on bool) { referenceEngine = on }
