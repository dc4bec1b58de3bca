package fll

import "bugnet/internal/dict"

// FieldReader is the field-at-a-time reference decoder, for the package's
// external tests.
type FieldReader = refReader

// NewFieldReader opens l with the reference decoder.
func NewFieldReader(l *Log, d *dict.Table) *FieldReader { return newRefReader(l, d) }

// MaxIntervalLimit is the widest interval limit a log may claim.
const MaxIntervalLimit = maxIntervalLimit

// RankCount is the rank count the reader derives from m's trailer,
// math.MaxUint64 when the trailer states none.
func RankCount(m *Meta, indexBits uint) uint64 { return rankCount(m, indexBits) }
