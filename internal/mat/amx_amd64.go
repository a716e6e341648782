//go:build amd64 && !purego

package mat

// amxKeep is the int8 filter's masks of whole 16-row groups of R rows
// against pairs of S panels, computed on AMX tiles (package doc, "Int8
// filter"); amx_amd64.s has its contract.
//
//go:noescape
func amxKeep(cfg *amxConfig, r *byte, ldr, groups int, panel *byte, pairs int, corr *int32, col, row, bound *float32, lead, live0, live1 int, valid uint32, buf *int32, masks *uint32, keep *uint64)

// haveAMX reports whether amxKeep may run: the host has AMX-TILE and
// AMX-INT8 (CPUID leaf 7 EDX bits 24 and 25) besides the int8 filter's
// AVX-512 VNNI, the OS saves the tile state (XCR0 bits 17 and 18), and
// it lets this process use the tiles (permitAMX). amxAbsent says why
// not, or is "".
var (
	amxAbsent = amxCheck()
	haveAMX   = amxAbsent == ""
)

func amxCheck() string {
	switch {
	case !haveVNNI:
		return "no AVX-512 VNNI on this host"
	case !detectAMX():
		return "no AMX-TILE and AMX-INT8 on this host, or the OS does not save their state"
	case !permitAMX():
		return "the OS did not let this process use the AMX tiles"
	}
	return ""
}

// useAMX computes the int8 filter's cells on AMX tiles. It is set once
// at start; tests switch it to hold the tiles to int8TileGE.
var useAMX = haveAMX

func detectAMX() bool {
	_, _, _, edx := cpuid(7, 0)
	xcr0, _ := xgetbv()
	const tile, int8 = 1 << 24, 1 << 25
	return edx&(tile|int8) == tile|int8 && xcr0&(3<<17) == 3<<17
}
