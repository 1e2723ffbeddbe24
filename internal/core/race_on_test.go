//go:build race

package core

// raceEnabled lets allocation-count tests skip themselves: the race
// detector's instrumentation allocates on the paths under test.
const raceEnabled = true
