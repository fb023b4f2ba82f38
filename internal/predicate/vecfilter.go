package predicate

import (
	"bytes"

	"manimal/internal/serde"
)

// Vectorized residual-filter kernels: each ANDs the interval's containment
// test into mask over a whole column vector, hoisting the bound extraction
// and kind dispatch that Contains pays per row out of the loop. The column
// must hold values of the interval's bound kind (the storage layer's
// compiled filters guarantee this); element i is tested only when mask[i]
// is still true, so a conjunct's bounds compose by successive kernel calls.
//
// Each kernel is behaviorally identical to
//
//	mask[i] = mask[i] && iv.Contains(columnDatum(i))
//
// which storage's scan differentials pin against ZoneFilter.MatchesRecord.

// FilterInt64 ANDs containment of an int64 column into mask.
func (iv Interval) FilterInt64(col []int64, mask []bool) {
	if iv.Empty {
		clearMask(mask)
		return
	}
	if iv.Lo.IsValid() {
		lo := iv.Lo.Int()
		if iv.LoInc {
			for i, v := range col {
				mask[i] = mask[i] && v >= lo
			}
		} else {
			for i, v := range col {
				mask[i] = mask[i] && v > lo
			}
		}
	}
	if iv.Hi.IsValid() {
		hi := iv.Hi.Int()
		if iv.HiInc {
			for i, v := range col {
				mask[i] = mask[i] && v <= hi
			}
		} else {
			for i, v := range col {
				mask[i] = mask[i] && v < hi
			}
		}
	}
}

// FilterFloat64 ANDs containment of a float64 column into mask.
func (iv Interval) FilterFloat64(col []float64, mask []bool) {
	if iv.Empty {
		clearMask(mask)
		return
	}
	if iv.Lo.IsValid() {
		lo := iv.Lo.Float()
		if iv.LoInc {
			for i, v := range col {
				mask[i] = mask[i] && v >= lo
			}
		} else {
			for i, v := range col {
				mask[i] = mask[i] && v > lo
			}
		}
	}
	if iv.Hi.IsValid() {
		hi := iv.Hi.Float()
		if iv.HiInc {
			for i, v := range col {
				mask[i] = mask[i] && v <= hi
			}
		} else {
			for i, v := range col {
				mask[i] = mask[i] && v < hi
			}
		}
	}
}

// FilterString ANDs containment of a string column into mask.
func (iv Interval) FilterString(col []string, mask []bool) {
	if iv.Empty {
		clearMask(mask)
		return
	}
	if iv.Lo.IsValid() {
		lo := iv.Lo.Str()
		if iv.LoInc {
			for i, v := range col {
				mask[i] = mask[i] && v >= lo
			}
		} else {
			for i, v := range col {
				mask[i] = mask[i] && v > lo
			}
		}
	}
	if iv.Hi.IsValid() {
		hi := iv.Hi.Str()
		if iv.HiInc {
			for i, v := range col {
				mask[i] = mask[i] && v <= hi
			}
		} else {
			for i, v := range col {
				mask[i] = mask[i] && v < hi
			}
		}
	}
}

// FilterBytes ANDs containment of a bytes column into mask.
func (iv Interval) FilterBytes(col [][]byte, mask []bool) {
	if iv.Empty {
		clearMask(mask)
		return
	}
	if iv.Lo.IsValid() {
		lo := iv.Lo.Raw()
		for i, v := range col {
			if !mask[i] {
				continue
			}
			c := bytes.Compare(v, lo)
			mask[i] = c > 0 || (c == 0 && iv.LoInc)
		}
	}
	if iv.Hi.IsValid() {
		hi := iv.Hi.Raw()
		for i, v := range col {
			if !mask[i] {
				continue
			}
			c := bytes.Compare(v, hi)
			mask[i] = c < 0 || (c == 0 && iv.HiInc)
		}
	}
}

// FilterBool ANDs containment of a bool column into mask (false < true,
// matching Datum.Compare).
func (iv Interval) FilterBool(col []bool, mask []bool) {
	if iv.Empty {
		clearMask(mask)
		return
	}
	// With only two values, containment per value is a pair of precomputed
	// booleans.
	admitsFalse := iv.Contains(serde.Bool(false))
	admitsTrue := iv.Contains(serde.Bool(true))
	for i, v := range col {
		if v {
			mask[i] = mask[i] && admitsTrue
		} else {
			mask[i] = mask[i] && admitsFalse
		}
	}
}

func clearMask(mask []bool) {
	for i := range mask {
		mask[i] = false
	}
}
