//go:build !linux && !purego

package mat

// permitAMX reports false: the tiles are asked for only on Linux.
func permitAMX() bool { return false }
