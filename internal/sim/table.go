package sim

// Table maps small non-negative integers — node, port and process ids,
// channels — to values, as a kernel or a NIC keeps such tables: an array
// indexed by the id, grown on demand, where a Go map would hash. The
// zero T means "no entry", so T is a pointer or an id that is never
// zero. Walking All in index order is walking the keys in ascending
// order.
type Table[T comparable] struct {
	s []T
	n int // entries present
}

// Get returns the entry under id, the zero T if there is none.
func (t *Table[T]) Get(id int) (v T) {
	if uint(id) < uint(len(t.s)) {
		v = t.s[id]
	}
	return v
}

// Set stores v under id; the zero T removes the entry.
func (t *Table[T]) Set(id int, v T) {
	var zero T
	if id >= len(t.s) {
		if v == zero {
			return
		}
		t.s = append(t.s, make([]T, id+1-len(t.s))...)
	}
	switch {
	case t.s[id] == zero && v != zero:
		t.n++
	case t.s[id] != zero && v == zero:
		t.n--
	}
	t.s[id] = v
}

// Len returns the number of entries present.
func (t *Table[T]) Len() int { return t.n }

// All returns the table as a slice indexed by id, absent ids holding the
// zero T. It is the table's own storage: valid until the next Set.
func (t *Table[T]) All() []T { return t.s }
