//go:build !race

package mvtso

const raceEnabled = false
