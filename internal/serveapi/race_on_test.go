//go:build race

package serveapi

// See race_off_test.go.
const raceEnabled = true
