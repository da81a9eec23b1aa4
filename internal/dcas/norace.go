//go:build !race

package dcas

const raceEnabled = false
