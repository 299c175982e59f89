//go:build !race

package ringoram

const raceEnabled = false
