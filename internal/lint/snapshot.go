package lint

// checkSnapshotLifecycle enforces the one reader-side rule of DESIGN.md
// §8's epoch snapshots that no type states: a snapshot reference may not
// outlive the search that reads through it — scanEscapes with the
// snapshot predicate. (That every pin is dropped is not a convention any
// more: diskindex.Index.pinned is the only code that counts one, and it
// never hands the count out.)
//
// The writer-side retirement list (parking a superseded snapshot until
// its readers drain) is exactly such a field store by design; it carries
// a reviewed //nnc:allow rather than a carve-out here, so the exception
// stays visible at the site that needs it.
func checkSnapshotLifecycle(prog *Program, r *Reporter) {
	scanEscapes(prog, r, "snapshot-lifecycle", "snapshot", "its acquire scope", isSnapshotType)
}
