//go:build !race

package serveapi

// raceEnabled reports whether the race detector instruments this build.
// The allocation gates consult it: under -race, sync.Pool deliberately
// drops a quarter of Put items to widen interleavings, so pooled paths
// allocate spuriously and AllocsPerRun is meaningless.
const raceEnabled = false
