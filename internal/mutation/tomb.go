package mutation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ejoin/internal/durable"
	"ejoin/internal/relational"
)

// Tombstone sidecar: the part of a checkpoint a plain table file cannot
// carry. A checkpoint writes the table's physical rows as they are, and
// WAL replay from it must land on the same row ids, so the tombstones
// that physical table still carries (those since its last compaction) go
// in the sidecar: which ids are dead, plus the incarnation and generation
// the checkpoint covers. A table with none, such as one just compacted,
// checkpoints without a sidecar. Format ("EJTOM001"):
//
//	magic | u64 incarnation | u64 gen | u64 count | count × u64 dead ids |
//	u32 crc32c(everything after magic)
//
// Written atomically via durable.AtomicWriteFile; a corrupt sidecar fails
// the table's recovery the same way a corrupt table file does.

// tombMagic heads a tombstone sidecar file.
var tombMagic = [8]byte{'E', 'J', 'T', 'O', 'M', '0', '0', '1'}

// TombState is a decoded sidecar.
type TombState struct {
	Incarnation uint64
	Gen         uint64
	Dead        []uint64
}

// WriteTombFile atomically persists a tombstone sidecar at path.
func WriteTombFile(path string, st TombState) error {
	return durable.AtomicWriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(encodeTomb(st)); err != nil {
			return fmt.Errorf("mutation: writing tomb sidecar: %w", err)
		}
		return nil
	})
}

// encodeTomb is the sidecar image of st.
func encodeTomb(st TombState) []byte {
	le := binary.LittleEndian
	out := append([]byte(nil), tombMagic[:]...)
	for _, v := range []uint64{st.Incarnation, st.Gen, uint64(len(st.Dead))} {
		out = le.AppendUint64(out, v)
	}
	for _, id := range st.Dead {
		out = le.AppendUint64(out, id)
	}
	return le.AppendUint32(out, crc32.Checksum(out[len(tombMagic):], crcTable))
}

// ReadTombFile loads the sidecar at path. A missing file means the
// checkpoint had no tombstones and no mutations (zero state), not an
// error; a present-but-corrupt file is an error.
func ReadTombFile(path string) (TombState, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return TombState{}, nil
	}
	if err != nil {
		return TombState{}, fmt.Errorf("mutation: reading tomb sidecar: %w", err)
	}
	st, err := decodeTomb(data)
	if err != nil {
		return TombState{}, fmt.Errorf("mutation: tomb sidecar %s: %w", path, err)
	}
	return st, nil
}

// decodeTomb parses a sidecar image. Any bytes but an intact image are an
// error; it allocates only for the ids the image holds.
func decodeTomb(data []byte) (TombState, error) {
	if len(data) < len(tombMagic)+24+4 || !bytes.Equal(data[:8], tombMagic[:]) {
		return TombState{}, errors.New("not a tombstone sidecar")
	}
	body, crcB := data[8:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(crcB) {
		return TombState{}, errors.New("checksum mismatch")
	}
	st := TombState{
		Incarnation: binary.LittleEndian.Uint64(body[0:8]),
		Gen:         binary.LittleEndian.Uint64(body[8:16]),
	}
	count, ids := binary.LittleEndian.Uint64(body[16:24]), body[24:]
	if len(ids)%8 != 0 || count != uint64(len(ids)/8) {
		return TombState{}, fmt.Errorf("%d id bytes, header says %d ids", len(ids), count)
	}
	st.Dead = make([]uint64, count)
	for i := range st.Dead {
		st.Dead[i] = binary.LittleEndian.Uint64(ids[i*8:])
	}
	return st, nil
}

// DeadIDs lists a version's tombstoned row ids in ascending order.
func DeadIDs(v *Version) []uint64 {
	if v.Live == nil || v.Dead == 0 {
		return nil
	}
	out := make([]uint64, 0, v.Dead)
	for r := 0; r < v.Table.NumRows(); r++ {
		if !v.Live.Get(r) {
			out = append(out, uint64(r))
		}
	}
	return out
}

// LiveFromDead reconstructs a live bitmap over n rows from a sidecar's
// dead id list. Ids at or beyond n (sidecar from a different table state)
// are an error.
func LiveFromDead(n int, dead []uint64) (*relational.Bitmap, error) {
	live := relational.NewBitmap(n)
	for r := 0; r < n; r++ {
		live.Set(r)
	}
	for _, id := range dead {
		if id >= uint64(n) {
			return nil, fmt.Errorf("mutation: tombstone id %d beyond table rows %d", id, n)
		}
		live.Clear(int(id))
	}
	return live, nil
}
