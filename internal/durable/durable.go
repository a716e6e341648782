// Package durable is the disk persistence subsystem: it makes the
// engine's expensive-to-recompute state survive restarts, deploys, and
// crashes.
//
// The paper's central cost observation is that the embedding operator E_µ
// dominates end-to-end join time. The embedding store amortizes it across
// queries; a data directory amortizes it across process lifetimes. This
// package holds the formats and helpers of the table catalog: a manifest
// (MANIFEST.json) naming one checksummed columnar table file per
// registered table (WriteTableFile/ReadTableFile), so ingested tables
// reopen on boot. The directory's one log, the mutation WAL (package
// mutation), carries the mutations since the last checkpoint and the
// vectors the embedding store computed, so a reboot serves them without
// a model call.
//
// Layout of a data directory:
//
//	<dir>/
//	  MANIFEST.json          table catalog (atomic rewrite)
//	  tables/<name>.tbl      columnar table files (and checkpoint sidecars)
//	  wal.log                mutation WAL: mutations and embeddings
//
// Every multi-byte integer on disk is little-endian; every file carries a
// magic header; every record and file body is CRC-checked (Castagnoli).
// Rewrites are atomic: temp file in the same directory, fsync, rename.
package durable

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Subdirectory and file names inside a data directory.
const (
	ManifestName = "MANIFEST.json"
	TableDirName = "tables"
	WalName      = "wal.log"
)

// crcTable is the shared Castagnoli polynomial table (hardware-accelerated
// on amd64/arm64, and the polynomial production log formats use).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Layout resolves the standard paths under one data directory.
type Layout struct {
	Dir string
}

// ManifestPath is the table-catalog manifest file.
func (l Layout) ManifestPath() string { return filepath.Join(l.Dir, ManifestName) }

// TableDir is the columnar table file directory.
func (l Layout) TableDir() string { return filepath.Join(l.Dir, TableDirName) }

// TablePath is the file backing one named table.
func (l Layout) TablePath(name string) string {
	return filepath.Join(l.TableDir(), sanitizeName(name)+".tbl")
}

// TombPath is the tombstone sidecar for one named table: the row-level
// generation and dead row ids of the table's last checkpoint.
func (l Layout) TombPath(name string) string {
	return filepath.Join(l.TableDir(), sanitizeName(name)+".tomb")
}

// WalPath is the mutation write-ahead log (one per data directory).
func (l Layout) WalPath() string { return filepath.Join(l.Dir, WalName) }

// TableFileRel is TablePath relative to the data directory — the form
// recorded in manifest entries.
func (l Layout) TableFileRel(name string) string {
	return TableDirName + "/" + sanitizeName(name) + ".tbl"
}

// CheckpointTableRel names a mutation checkpoint's table file (relative to
// the data directory). Checkpoints never overwrite the live table file in
// place: they stage under a generation-suffixed name and commit by
// rewriting the manifest, whose File/TombFile/RowGen swap atomically.
// Superseded and uncommitted checkpoint files match IsCheckpointFile and
// are swept on open.
func (l Layout) CheckpointTableRel(name string, gen uint64) string {
	return fmt.Sprintf("%s/%s-g%016x.tbl", TableDirName, sanitizeName(name), gen)
}

// CheckpointTombRel names a mutation checkpoint's tombstone sidecar.
func (l Layout) CheckpointTombRel(name string, gen uint64) string {
	return fmt.Sprintf("%s/%s-g%016x.tomb", TableDirName, sanitizeName(name), gen)
}

// Resolve turns a manifest-relative file name into an absolute path.
func (l Layout) Resolve(rel string) string {
	return filepath.Join(l.Dir, filepath.FromSlash(rel))
}

// IsCheckpointFile reports whether a table-dir file name follows the
// generation-suffixed checkpoint pattern (candidates for the orphan
// sweep; registration-time files never match).
func IsCheckpointFile(base string) bool {
	ext := filepath.Ext(base)
	if ext != ".tbl" && ext != ".tomb" {
		return false
	}
	stem := strings.TrimSuffix(base, ext)
	i := strings.LastIndex(stem, "-g")
	if i < 0 || len(stem)-i-2 != 16 {
		return false
	}
	for _, c := range stem[i+2:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Create makes the directory tree (idempotent).
func (l Layout) Create() error {
	for _, d := range []string{l.Dir, l.TableDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("durable: creating %s: %w", d, err)
		}
	}
	return nil
}

// sanitizeName maps a table name to a safe file stem: anything outside
// [a-zA-Z0-9_-] becomes '_', with a '%02x' suffix of the hash for
// uniqueness when characters were replaced.
func sanitizeName(name string) string {
	safe := true
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			out[i] = c
		default:
			out[i] = '_'
			safe = false
		}
	}
	if safe && len(name) > 0 {
		return name
	}
	sum := crc32.Checksum([]byte(name), crcTable)
	return fmt.Sprintf("%s-%08x", out, sum)
}

// AtomicWriteFile writes via fn into a temp file in path's directory,
// fsyncs, and renames over path — readers never observe a partial file.
// The parent directory is fsynced after the rename, so the committed name
// survives a crash (a rename alone is only durable once its directory
// entry reaches disk). This is the one shared write-commit helper: the
// manifest, table files, the mutation layer's tombstone sidecars and its
// rewritten WAL all go through it.
func AtomicWriteFile(path string, fn func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: creating temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if err := fn(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("durable: renaming %s: %w", path, err)
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs a directory so a rename, create, or remove within it is
// durable. Best effort: some filesystems reject directory fsync.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
