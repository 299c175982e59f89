//go:build !race

package ringoram

// poison is a no-op outside race builds; see poison_race.go.
func poison([]byte) {}
