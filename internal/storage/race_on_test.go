//go:build race

package storage

// raceEnabled reports a -race build, under which sync.Pool drops a quarter
// of what it is handed and pool-backed allocation budgets do not hold.
const raceEnabled = true
