package storage

// Byte accounting for the governor's memory ledger. The model is a fixed
// per-value footprint — int64/float64 8 bytes, bool 1 byte, string 16
// bytes of header plus its content. NULLs charge their type's base
// footprint (the column slot is allocated either way); the lazily-built
// null bitmap is deliberately excluded.

// ApproxBytes returns the accounted footprint of the whole table under
// that model, computed column-wise without boxing.
func (t *Table) ApproxBytes() int64 {
	var n int64
	for _, c := range t.cols {
		switch c.typ {
		case TypeInt64:
			n += 8 * int64(len(c.ints))
		case TypeFloat64:
			n += 8 * int64(len(c.floats))
		case TypeBool:
			n += int64(len(c.bools))
		case TypeString:
			n += 16 * int64(len(c.strs))
			for _, s := range c.strs {
				n += int64(len(s))
			}
		}
	}
	return n
}
