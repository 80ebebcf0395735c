//go:build !race

package lossless

const raceEnabled = false
