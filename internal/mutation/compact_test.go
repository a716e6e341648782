package mutation

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// churnModel is the table a churn expects: the live keys in the physical
// order of their latest write, and each key's name.
type churnModel struct {
	order []int64
	names map[int64]string
}

func (m *churnModel) write(id int64, name string) {
	m.remove(id)
	m.order = append(m.order, id)
	m.names[id] = name
}

func (m *churnModel) remove(id int64) {
	if _, ok := m.names[id]; !ok {
		return
	}
	delete(m.names, id)
	for i, x := range m.order {
		if x == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *churnModel) liveNames() []string {
	out := make([]string, len(m.order))
	for i, id := range m.order {
		out[i] = m.names[id]
	}
	return out
}

// churn applies n seeded mutations to mt — upserts that overwrite six
// live keys and add two, deletes of four live keys — calling after with
// each published version. It returns the model of the final table.
func churn(t *testing.T, mt *Table, base int, n int, seed int64, hooks Hooks, after func(*Version)) *churnModel {
	t.Helper()
	m := &churnModel{names: make(map[int64]string)}
	for i := 0; i < base; i++ {
		m.write(int64(i), fmt.Sprintf("base%d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	next := int64(base)
	for op := 0; op < n; op++ {
		var v *Version
		var err error
		if op%3 == 2 {
			var keys []string
			for j := 0; j < 4 && len(m.order) > 0; j++ {
				id := m.order[rng.Intn(len(m.order))]
				m.remove(id)
				keys = append(keys, fmt.Sprint(id))
			}
			v, _, err = mt.Delete("id", keys, hooks)
		} else {
			var ids []int64
			var names []string
			for j := 0; j < 6 && len(m.order) > 0; j++ {
				ids = append(ids, m.order[rng.Intn(len(m.order))])
			}
			ids = append(ids, next, next+1)
			next += 2
			for _, id := range ids {
				names = append(names, fmt.Sprintf("v%d-%d", op, id))
			}
			for j, id := range ids {
				m.write(id, names[j])
			}
			v, _, err = mt.Upsert("id", rowsTable(t, ids, names), hooks)
		}
		if err != nil {
			t.Fatal(err)
		}
		after(v)
	}
	return m
}

// layout renders a version's physical rows in order, tombstoned ones
// marked, so two tables compare row id for row id.
func layout(t *testing.T, v *Version) string {
	t.Helper()
	names, err := v.Table.Strings("name")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for r, name := range names {
		if v.Live != nil && !v.Live.Get(r) {
			b.WriteByte('~')
		}
		b.WriteString(name)
		b.WriteByte(' ')
	}
	return b.String()
}

func baseTable(t *testing.T, inc uint64, n int) *Table {
	ids := make([]int64, n)
	names := make([]string, n)
	for i := range ids {
		ids[i], names[i] = int64(i), fmt.Sprintf("base%d", i)
	}
	return NewTable("items", inc, rowsTable(t, ids, names), nil, 0)
}

// After every mutation of a churn the table holds at most 2 × live + 256
// physical rows and exactly the rows a key-value model expects; each
// compaction keeps the live rows in order under a fresh lineage, leaves
// the WAL incarnation alone, and leaves the versions before it intact.
func TestCompactionBoundsPhysicalRows(t *testing.T) {
	mt := baseTable(t, 9, 300)
	prev := mt.Current()
	prevLayout := layout(t, prev)
	compactions := 0
	m := churn(t, mt, 300, 150, 1, Hooks{}, func(v *Version) {
		if phys, live := v.Table.NumRows(), v.NumLive(); phys > 2*live+compactMinDead {
			t.Fatalf("gen %d: %d physical rows for %d live", v.Gen, phys, live)
		}
		if v.Kept != nil {
			compactions++
			if v.Live != nil || v.Dead != 0 || v.Retired != nil {
				t.Fatalf("gen %d: compacted version has live=%v dead=%d retired=%v", v.Gen, v.Live != nil, v.Dead, v.Retired)
			}
			if lin := v.Table.Incarnation(); lin == 0 || lin == v.Compacted.Incarnation() || lin == prev.Table.Incarnation() {
				t.Fatalf("gen %d: compacted lineage %d, compacted from %d", v.Gen, lin, v.Compacted.Incarnation())
			}
			if v.Compacted.Incarnation() != prev.Table.Incarnation() {
				t.Fatalf("gen %d: compacted a table of lineage %d, predecessor has %d", v.Gen, v.Compacted.Incarnation(), prev.Table.Incarnation())
			}
			want, err := v.Compacted.Select(v.Kept)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := v.Table.Strings("name")
			if names, _ := want.Strings("name"); !reflect.DeepEqual(names, got) {
				t.Fatalf("gen %d: compacted rows are not the kept rows", v.Gen)
			}
		} else if v.Table.Incarnation() != prev.Table.Incarnation() {
			t.Fatalf("gen %d: lineage changed without a compaction", v.Gen)
		}
		if layout(t, prev) != prevLayout {
			t.Fatalf("gen %d changed the version before it", v.Gen)
		}
		prev, prevLayout = v, layout(t, v)
	})
	if got, want := liveNames(t, mt.Current()), m.liveNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live rows %v, want %v", got, want)
	}
	if mt.Incarnation != 9 {
		t.Fatalf("WAL incarnation moved to %d", mt.Incarnation)
	}
	if compactions < 2 {
		t.Fatalf("%d compactions, want the churn to cross the line at least twice", compactions)
	}
}

// FixRowIDs turns compaction off: the churn keeps every row it wrote.
func TestFixedRowIDsNeverCompact(t *testing.T) {
	mt := baseTable(t, 9, 300)
	mt.FixRowIDs()
	rows := 300
	churn(t, mt, 300, 150, 1, Hooks{}, func(v *Version) {
		if v.Kept != nil {
			t.Fatalf("gen %d compacted a table with fixed row ids", v.Gen)
		}
		if v.Table.NumRows() < rows {
			t.Fatalf("gen %d: %d rows after %d", v.Gen, v.Table.NumRows(), rows)
		}
		rows = v.Table.NumRows()
	})
}

// Replaying the WAL compacts at the same generations into the same
// physical layout: from the registered table, from a checkpoint taken at
// any generation, and from a log damaged anywhere (torn or flipped), which
// recovers exactly the layout after its intact prefix.
func TestCompactionReplaysToSameLayout(t *testing.T) {
	const inc = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	mt := baseTable(t, inc, 300)
	versions := []*Version{mt.Current()}
	var ends []int64
	compactions := 0
	churn(t, mt, 300, 120, 2, Hooks{Persist: w.Append}, func(v *Version) {
		versions = append(versions, v)
		ends = append(ends, w.Stats().SizeBytes)
		if v.Kept != nil {
			compactions++
		}
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if compactions == 0 {
		t.Fatal("the churn never compacted")
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	final := layout(t, versions[len(versions)-1])

	replay := func(t *testing.T, p string, into *Table) int {
		t.Helper()
		n := 0
		w, err := OpenWAL(p, func(r Record) error {
			applied, err := into.Apply(r, Hooks{})
			if applied {
				n++
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return n
	}

	// A checkpoint at generation k holds version k's physical table and
	// tombstones; replay skips the records it folded.
	for _, k := range []int{0, 1, len(versions) / 3, len(versions) / 2, len(versions) - 1} {
		v := versions[k]
		rec := NewTable("items", inc, v.Table, v.Live, v.Gen)
		replay(t, path, rec)
		if got := layout(t, rec.Current()); got != final {
			t.Fatalf("replay from the checkpoint at gen %d ends at\n%s\nwant\n%s", k, got, final)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		damaged := append([]byte(nil), pristine...)
		off := int64(len(walMagic)) + rng.Int63n(int64(len(damaged))-int64(len(walMagic)))
		if trial%2 == 0 {
			damaged = damaged[:off]
		} else {
			damaged[off] ^= 0xff
		}
		p := filepath.Join(dir, fmt.Sprintf("trial-%d.log", trial))
		if err := os.WriteFile(p, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := baseTable(t, inc, 300)
		n := replay(t, p, rec)
		intact := 0
		for _, e := range ends {
			if e <= off {
				intact++
			}
		}
		if n < intact {
			t.Fatalf("trial %d: replayed %d records, %d are intact", trial, n, intact)
		}
		if got, want := layout(t, rec.Current()), layout(t, versions[n]); got != want {
			t.Fatalf("trial %d: recovered layout after %d records\n%s\nwant\n%s", trial, n, got, want)
		}
	}
}
