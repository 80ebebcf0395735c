//go:build !race

package entropy

const raceEnabled = false
