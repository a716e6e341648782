package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"ejoin/internal/relational"
)

// Columnar table file format — how the catalog's ingested tables survive
// restarts:
//
//	magic "EJTBL001" | u32 numCols | u64 numRows | column* | u32 crc
//	column: u16 nameLen | name | u8 type | values
//
// Values are dense per type (i64, f64, length-prefixed strings,
// sec+nsec timestamps, bytes for bools); type tags are relational.Type's,
// and a column tagged with any other (5 once meant stored vectors) fails
// the read. The trailing CRC covers everything from the magic on, so a
// flipped byte anywhere in the file is detected at read time; recovery
// treats a failed table file as missing rather than serving bad rows.

var tblMagic = [8]byte{'E', 'J', 'T', 'B', 'L', '0', '0', '1'}

// maxTableCols bounds the column count a reader will trust, and
// maxStringLen the length of one string value.
const (
	maxTableCols = 1 << 16
	maxStringLen = 1 << 24
)

// readChunkRows bounds how many rows of a dense column are allocated and
// read at once. A corrupt row count (the header precedes the CRC check,
// which only runs at the end of the file) must fail with a short read
// after at most one chunk of over-allocation — never a multi-terabyte
// make() panic.
const readChunkRows = 1 << 16

// crcReader tracks a running checksum of everything read.
type crcReader struct {
	r   io.Reader
	sum hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, sum: crc32.New(crcTable)}
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum.Write(p[:n])
	return n, err
}

// AppendTable appends the encoding of t to buf.
func AppendTable(buf []byte, t *relational.Table) ([]byte, error) {
	le := binary.LittleEndian
	start := len(buf)
	schema := t.Schema()
	buf = append(buf, tblMagic[:]...)
	buf = le.AppendUint32(buf, uint32(len(schema)))
	buf = le.AppendUint64(buf, uint64(t.NumRows()))
	for i, f := range schema {
		buf = le.AppendUint16(buf, uint16(len(f.Name)))
		buf = append(append(buf, f.Name...), byte(f.Type))
		switch col := t.ColumnAt(i).(type) {
		case relational.Int64Column:
			for _, v := range col {
				buf = le.AppendUint64(buf, uint64(v))
			}
		case relational.Float64Column:
			for _, v := range col {
				buf = le.AppendUint64(buf, math.Float64bits(v))
			}
		case relational.StringColumn:
			for _, v := range col {
				buf = append(le.AppendUint32(buf, uint32(len(v))), v...)
			}
		case relational.TimeColumn:
			for _, v := range col {
				buf = le.AppendUint32(le.AppendUint64(buf, uint64(v.Unix())), uint32(v.Nanosecond()))
			}
		case relational.BoolColumn:
			for _, v := range col {
				b := byte(0)
				if v {
					b = 1
				}
				buf = append(buf, b)
			}
		default:
			return nil, fmt.Errorf("durable: writing column %q: unsupported column type %v", f.Name, f.Type)
		}
	}
	return le.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable)), nil
}

// DecodeTable deserializes p, which must hold exactly one table
// AppendTable encoded, verifying the trailing checksum before returning
// it. It accepts only the encoding AppendTable gives the table it returns
// (bools are 0 or 1, nanoseconds below 1e9), so a table it decodes
// re-encodes to the same bytes.
func DecodeTable(p []byte) (*relational.Table, error) {
	r := bytes.NewReader(p)
	t, err := readTable(r)
	if err == nil && r.Len() > 0 {
		return nil, fmt.Errorf("durable: %d bytes after the table", r.Len())
	}
	return t, err
}

func readTable(r io.Reader) (*relational.Table, error) {
	cr := newCRCReader(r)
	le := binary.LittleEndian
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("durable: reading table header: %w", err)
	}
	if magic != tblMagic {
		return nil, fmt.Errorf("durable: bad table magic %q", magic)
	}
	var numCols uint32
	var numRows uint64
	if err := binary.Read(cr, le, &numCols); err != nil {
		return nil, fmt.Errorf("durable: reading table header: %w", err)
	}
	if err := binary.Read(cr, le, &numRows); err != nil {
		return nil, fmt.Errorf("durable: reading table header: %w", err)
	}
	if numCols > maxTableCols {
		return nil, fmt.Errorf("durable: implausible column count %d", numCols)
	}
	rows := int(numRows)
	if rows < 0 {
		return nil, fmt.Errorf("durable: implausible row count %d", numRows)
	}
	readString := func() (string, error) {
		var n uint32
		if err := binary.Read(cr, le, &n); err != nil {
			return "", err
		}
		if n > maxStringLen {
			return "", fmt.Errorf("implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	// chunked grows a column readChunkRows at a time, so allocation tracks
	// bytes actually present in the file: a corrupt row count hits a short
	// read after one bounded chunk instead of a huge upfront make().
	chunked := func(total int, read func(n int) error) error {
		for done := 0; done < total; {
			n := total - done
			if n > readChunkRows {
				n = readChunkRows
			}
			if err := read(n); err != nil {
				return err
			}
			done += n
		}
		return nil
	}

	schema := make(relational.Schema, numCols)
	cols := make([]relational.Column, numCols)
	for i := range cols {
		var nameLen uint16
		if err := binary.Read(cr, le, &nameLen); err != nil {
			return nil, fmt.Errorf("durable: reading column %d: %w", i, err)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, nameBuf); err != nil {
			return nil, fmt.Errorf("durable: reading column %d: %w", i, err)
		}
		var typ uint8
		if err := binary.Read(cr, le, &typ); err != nil {
			return nil, fmt.Errorf("durable: reading column %d: %w", i, err)
		}
		schema[i] = relational.Field{Name: string(nameBuf), Type: relational.Type(typ)}
		var err error
		switch relational.Type(typ) {
		case relational.Int64:
			col := relational.Int64Column{}
			err = chunked(rows, func(n int) error {
				buf := make([]int64, n)
				if err := binary.Read(cr, le, buf); err != nil {
					return err
				}
				col = append(col, buf...)
				return nil
			})
			cols[i] = col
		case relational.Float64:
			col := relational.Float64Column{}
			err = chunked(rows, func(n int) error {
				buf := make([]float64, n)
				if err := binary.Read(cr, le, buf); err != nil {
					return err
				}
				col = append(col, buf...)
				return nil
			})
			cols[i] = col
		case relational.String:
			col := relational.StringColumn{}
			for r := 0; r < rows; r++ {
				var s string
				if s, err = readString(); err != nil {
					break
				}
				col = append(col, s)
			}
			cols[i] = col
		case relational.Time:
			col := relational.TimeColumn{}
			for r := 0; r < rows; r++ {
				var sec int64
				var nsec int32
				if err = binary.Read(cr, le, &sec); err != nil {
					break
				}
				if err = binary.Read(cr, le, &nsec); err != nil {
					break
				}
				if nsec < 0 || nsec >= 1e9 {
					err = fmt.Errorf("row %d: %d nanoseconds", r, nsec)
					break
				}
				col = append(col, time.Unix(sec, int64(nsec)).UTC())
			}
			cols[i] = col
		case relational.Bool:
			col := relational.BoolColumn{}
			err = chunked(rows, func(n int) error {
				bs := make([]byte, n)
				if _, err := io.ReadFull(cr, bs); err != nil {
					return err
				}
				for _, b := range bs {
					if b > 1 {
						return fmt.Errorf("bool byte %d", b)
					}
					col = append(col, b == 1)
				}
				return nil
			})
			cols[i] = col
		default:
			return nil, fmt.Errorf("durable: column %q has unknown type %d", schema[i].Name, typ)
		}
		if err != nil {
			return nil, fmt.Errorf("durable: reading column %q: %w", schema[i].Name, err)
		}
	}
	want := cr.sum.Sum32()
	var crc uint32
	if err := binary.Read(cr.r, le, &crc); err != nil {
		return nil, fmt.Errorf("durable: reading table checksum: %w", err)
	}
	if crc != want {
		return nil, fmt.Errorf("durable: table failed checksum (corrupt file?)")
	}
	t, err := relational.NewTable(schema, cols)
	if err == nil && t.NumRows() != rows {
		return nil, fmt.Errorf("durable: %d rows in a table of no columns", rows)
	}
	return t, err
}

// WriteTableFile atomically writes t to path.
func WriteTableFile(path string, t *relational.Table) error {
	buf, err := AppendTable(nil, t)
	if err != nil {
		return err
	}
	return AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// ReadTableFile reads a table file written by WriteTableFile.
func ReadTableFile(path string) (*relational.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durable: reading table file %s: %w", path, err)
	}
	return DecodeTable(data)
}
