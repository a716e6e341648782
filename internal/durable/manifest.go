package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Manifest is the table catalog's durable root: the set of tables the
// engine should reopen on boot, each pointing at a checksummed table
// file. The manifest is rewritten atomically on every catalog mutation,
// so a crash leaves either the old or the new catalog — never a partial
// one. Table files referenced by neither version are orphans and are
// swept on open.
type Manifest struct {
	// Version is the manifest format version.
	Version int `json:"version"`
	// Tables lists the persisted tables, sorted by name.
	Tables []TableEntry `json:"tables"`
}

// ManifestVersion is the current format version.
const ManifestVersion = 1

// TableEntry is one persisted table.
type TableEntry struct {
	// Name is the catalog name.
	Name string `json:"name"`
	// File is the table file name, relative to the layout's table dir.
	File string `json:"file"`
	// Rows and Cols describe the table, for listing without opening.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Incarnation identifies this registration of the name: drop-then-
	// recreate under the same name gets a fresh incarnation, so mutation
	// WAL records from the old table can never replay into the new one.
	Incarnation uint64 `json:"incarnation,omitempty"`
	// RowGen is the table's row-level mutation generation as of its last
	// checkpoint; WAL records at or below it are already folded into the
	// table file and tombstone sidecar, and replay skips them.
	RowGen uint64 `json:"row_gen,omitempty"`
	// TombFile is the tombstone sidecar file name, relative to the data
	// directory; empty when the checkpoint had no tombstoned rows. File,
	// TombFile, and RowGen commit together in one atomic manifest write —
	// that write is the checkpoint's commit point, so a crash mid-
	// checkpoint leaves the previous consistent triple.
	TombFile string `json:"tomb_file,omitempty"`
}

// Sort orders entries by name (canonical form, stable diffs).
func (m *Manifest) Sort() {
	sort.Slice(m.Tables, func(i, j int) bool { return m.Tables[i].Name < m.Tables[j].Name })
}

// Upsert adds or replaces the entry for e.Name.
func (m *Manifest) Upsert(e TableEntry) {
	for i := range m.Tables {
		if m.Tables[i].Name == e.Name {
			m.Tables[i] = e
			return
		}
	}
	m.Tables = append(m.Tables, e)
	m.Sort()
}

// Remove deletes the entry for name, reporting whether it existed.
func (m *Manifest) Remove(name string) bool {
	for i := range m.Tables {
		if m.Tables[i].Name == name {
			m.Tables = append(m.Tables[:i], m.Tables[i+1:]...)
			return true
		}
	}
	return false
}

// ReadManifest loads the manifest at path. A missing file is an empty
// manifest (fresh data directory), not an error.
func ReadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Manifest{Version: ManifestVersion}, nil
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("durable: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("durable: parsing manifest %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return Manifest{}, fmt.Errorf("durable: manifest version %d, this build reads %d", m.Version, ManifestVersion)
	}
	return m, nil
}

// Write atomically persists the manifest to path.
func (m Manifest) Write(path string) error {
	m.Version = ManifestVersion
	m.Sort()
	return AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}
