package svc

import (
	"bytes"
	"math/rand"
	"testing"
)

// wireField is one field of a body program: a u64, a byte, a byte
// field or a string field.
type wireField struct {
	kind byte // 0 u64, 1 byte, 2 bytes, 3 str
	u    uint64
	b    []byte
}

// wireProgram reads a body program out of fuzz bytes: each field is an
// op byte (kind op%4; a bytes or str field is op/4 bytes long) and its
// value from the bytes after it, zero-padded when they run out.
func wireProgram(prog []byte) []wireField {
	var fs []wireField
	take := func(n int) []byte {
		v := make([]byte, n)
		prog = prog[copy(v, prog):]
		return v
	}
	for len(prog) > 0 {
		op := prog[0]
		prog = prog[1:]
		f := wireField{kind: op % 4}
		switch f.kind {
		case 0:
			for i, c := range take(8) {
				f.u |= uint64(c) << (8 * i)
			}
		case 1:
			f.u = uint64(take(1)[0])
		default:
			f.b = take(int(op / 4))
		}
		fs = append(fs, f)
	}
	return fs
}

// encode appends f to b with the codec the endpoints use.
func (f wireField) encode(b []byte) []byte {
	switch f.kind {
	case 0:
		return putU64(b, f.u)
	case 1:
		return append(b, byte(f.u))
	case 2:
		return putBytes(b, f.b)
	}
	return putStr(b, string(f.b))
}

// read decodes one field of f's kind from r, as a handler would.
func (f wireField) read(r *reader) wireField {
	g := wireField{kind: f.kind}
	switch f.kind {
	case 0:
		g.u = r.u64()
	case 1:
		g.u = uint64(r.byte())
	default:
		g.b = r.bytes()
	}
	return g
}

func (f wireField) equal(g wireField) bool {
	return f.kind == g.kind && f.u == g.u && bytes.Equal(f.b, g.b)
}

// replayReader checks the reader against the program it encodes: the
// whole body decodes to the same fields; every truncation decodes the
// fields that end before the cut, then fails with ok false and a zero
// field, never a field running past the end; and the fuzz bytes read
// as a body of the same shape never panic.
func replayReader(t *testing.T, prog []byte) {
	fields := wireProgram(prog)
	var body []byte
	ends := make([]int, len(fields))
	for i, f := range fields {
		body = f.encode(body)
		ends[i] = len(body)
	}
	r := newReader(body)
	for i, f := range fields {
		if g := f.read(r); !r.ok || !g.equal(f) {
			t.Fatalf("field %d of %d: read %+v (ok %v), encoded %+v", i, len(fields), g, r.ok, f)
		}
	}
	if len(r.b) != 0 {
		t.Fatalf("%d bytes left after the last field", len(r.b))
	}
	for cut := 0; cut < len(body); cut++ {
		r := newReader(body[:cut])
		for i, f := range fields {
			g := f.read(r)
			if ends[i] <= cut {
				if !r.ok || !g.equal(f) {
					t.Fatalf("cut %d, field %d: read %+v (ok %v), encoded %+v", cut, i, g, r.ok, f)
				}
				continue
			}
			if r.ok || g.u != 0 || g.b != nil {
				t.Fatalf("cut %d, field %d ends at %d: read %+v with ok %v", cut, i, ends[i], g, r.ok)
			}
			break
		}
	}
	r = newReader(prog)
	for _, f := range fields {
		f.read(r)
	}
}

func TestReaderMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		prog := make([]byte, rng.Intn(80))
		rng.Read(prog)
		replayReader(t, prog)
	}
}

func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 9, 10, 'k', 'e', 'y', 11, 'v', 'a', 'l'})
	f.Add([]byte{3, 2, 255, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { replayReader(t, prog) })
}
