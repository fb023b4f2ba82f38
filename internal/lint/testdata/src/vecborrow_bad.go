// Seeded vecborrow violations: each "want" line below must be reported.
package testdata

type vector struct{ is []int64 }

func (v *vector) Ints() []int64 { return v.is }

type batch struct {
	col vector
	sel []int32
}

func (b *batch) Col(i int) *vector { return &b.col }
func (b *batch) Sel() []int32      { return b.sel }

type vholder struct {
	ints []int64
	sel  []int32
}

func retainVectors(b *batch, cols [][]int64, m map[int][]int32, ch chan []int64) [][]int64 {
	cols = append(cols, b.Col(0).Ints()) // want: appended to a slice
	m[0] = b.Sel()                       // want: stored in a container
	h := vholder{}
	h.ints = b.Col(0).Ints() // want: stored in a field
	hs := []vholder{
		{sel: b.Sel()}, // want: composite literal
	}
	ch <- b.Col(0).Ints()                     // want: sent on a channel
	keys := append([][][]byte(nil), b.Keys()) // want: appended to a slice
	_, _, _ = h, hs, keys
	return cols
}

func borrowVectorsOK(b *batch) int64 {
	ints := b.Col(0).Ints() // ok: local borrow
	var sum int64
	for _, sel := range b.Sel() { // ok: iterated in place
		sum += ints[sel]
	}
	return sum
}

func (b *batch) Keys() [][]byte { return nil }
