//go:build !race

package adindex

const raceEnabled = false
