//go:build !purego

package mat

import "syscall"

// permitAMX asks Linux for the tile data state, which it hands a process
// only on request (arch_prctl ARCH_REQ_XCOMP_PERM for
// XFEATURE_XTILEDATA), and reports whether it was granted. The
// permission is the process's, so a goroutine may use the tiles on any
// thread.
func permitAMX() bool {
	const archReqXcompPerm, xfeatureXtiledata = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXtiledata, 0)
	return errno == 0
}
