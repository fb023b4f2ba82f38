package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"manimal/internal/compress"
	"manimal/internal/durable"
)

// Concat writes dst as the record files parts joined in order: the records
// of parts[0], then those of parts[1], and so on, in one file with the
// parts' schema and encodings. It is how a parallel index build assembles
// its per-task files without re-encoding a record.
//
// Blocks are copied segment by segment: each block's segments are read and
// checked against their CRC32C (corruption in a part surfaces as a
// CorruptBlockError rather than being sealed under a fresh checksum), and
// the block's index entry and zone-map stats carry over unchanged — stats
// are on logical values. Only dictionary-field segments are rewritten:
// every part's codes are remapped onto one dictionary holding the parts'
// terms in part order, then local code order, which is exactly the
// first-seen order a single Writer fed the same records would assign. A
// part's last block may be short, so block boundaries follow part
// boundaries.
//
// The parts must share one schema and one encoding per field. dst is
// committed through one durable.File: on any error, a corrupt part or a
// canceled ctx (polled once per block) included, the temp file is removed
// and whatever was at dst is untouched.
func Concat(ctx context.Context, dst string, parts []string) error {
	if len(parts) == 0 {
		return fmt.Errorf("storage: concat %s: no parts", dst)
	}
	readers := make([]*Reader, 0, len(parts))
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, p := range parts {
		r, err := Open(p)
		if err != nil {
			return err
		}
		if len(readers) > 0 {
			first := readers[0]
			if !r.schema.Equal(first.schema) {
				return fmt.Errorf("storage: concat %s: %s has schema %s, %s has %s", dst, p, r.schema, first.path, first.schema)
			}
			if !slices.Equal(r.encodings, first.encodings) {
				return fmt.Errorf("storage: concat %s: %s and %s differ in field encodings", dst, p, first.path)
			}
		}
		readers = append(readers, r)
	}
	schema, encodings := readers[0].schema, readers[0].encodings

	// One dictionary per dict field, filled part by part; remaps[p][f]
	// translates part p's codes for field f, nil where they already agree.
	dicts := make([]*compress.Dictionary, len(encodings))
	remaps := make([][][]uint64, len(readers))
	for f, e := range encodings {
		if e != EncodeDict {
			continue
		}
		dicts[f] = compress.NewDictionary()
		for p, r := range readers {
			local := r.dicts[f]
			remap := make([]uint64, local.Len())
			identity := true
			for c := range remap {
				term, _ := local.Decode(uint64(c))
				remap[c] = dicts[f].Encode(term)
				identity = identity && remap[c] == uint64(c)
			}
			if !identity {
				if remaps[p] == nil {
					remaps[p] = make([][]uint64, len(encodings))
				}
				remaps[p][f] = remap
			}
		}
	}

	out, err := durable.Create(dst)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", dst, err)
	}
	c := concatenator{out: out, dst: dst, segs: make([][]byte, schema.NumFields())}
	if _, err := out.Write(appendHeader(nil, schema, encodings)); err != nil {
		out.Abort()
		return fmt.Errorf("storage: write header: %w", err)
	}
	for p, r := range readers {
		if err := c.copyBlocks(ctx, r, remaps[p]); err != nil {
			out.Abort()
			return err
		}
	}
	if _, err := out.Write(appendFooter(nil, c.blocks, c.index, c.stats, encodings, dicts)); err != nil {
		out.Abort()
		return fmt.Errorf("storage: write footer: %w", err)
	}
	if err := out.Commit(); err != nil {
		return fmt.Errorf("storage: commit %s: %w", dst, err)
	}
	return nil
}

// concatenator is Concat's output side: the file being written and the
// footer sections accumulated block by block, plus reused read buffers.
type concatenator struct {
	out    *durable.File
	dst    string
	blocks int
	index  []byte // encoded block index entries
	stats  []byte // encoded per-block stats
	raw    []byte // one block's segments as read
	segs   [][]byte
	block  []byte // one block as written, when a segment is remapped
}

// copyBlocks appends every block of r to the output, remapping the codes
// of each field whose remap is non-nil.
func (c *concatenator) copyBlocks(ctx context.Context, r *Reader, remap [][]uint64) error {
	nf := len(c.segs)
	for b := range r.blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if c.raw, err = r.readSegments(b, nil, c.raw, c.segs); err != nil {
			return err
		}
		if err := writeFault(c.dst, c.blocks); err != nil {
			return err
		}
		// A part whose codes need no remap is written as read; otherwise the
		// block is reassembled with its dictionary segments rewritten.
		recs := r.blocks[b].records
		c.index = binary.AppendUvarint(c.index, uint64(recs))
		c.block = c.block[:0]
		for f, seg := range c.segs {
			crc := r.segs[b*nf+f].crc
			if remap != nil {
				start := len(c.block)
				if remap[f] == nil {
					c.block = append(c.block, seg...)
				} else {
					if c.block, err = appendRemapped(c.block, seg, recs, remap[f]); err != nil {
						return r.corruptBlock(b, err)
					}
					crc = crc32.Checksum(c.block[start:], castagnoli)
				}
				seg = c.block[start:]
			}
			c.index = binary.AppendUvarint(c.index, uint64(len(seg)))
			c.index = binary.LittleEndian.AppendUint32(c.index, crc)
		}
		block := c.raw
		if remap != nil {
			block = c.block
		}
		if _, err := c.out.Write(block); err != nil {
			return fmt.Errorf("storage: write block: %w", err)
		}
		c.stats = appendBlockStats(c.stats, r.blockStats[b])
		c.blocks++
	}
	return nil
}

// appendRemapped appends the dictionary segment seg, which holds recs
// codes, with every code translated through remap.
func appendRemapped(dst, seg []byte, recs int64, remap []uint64) ([]byte, error) {
	pos := 0
	for i := int64(0); i < recs; i++ {
		code, n := binary.Uvarint(seg[pos:])
		if n <= 0 || code >= uint64(len(remap)) {
			return dst, fmt.Errorf("dictionary code %d of %d does not decode", i, recs)
		}
		pos += n
		dst = binary.AppendUvarint(dst, remap[code])
	}
	if pos != len(seg) {
		return dst, fmt.Errorf("%d bytes left over after %d dictionary codes", len(seg)-pos, recs)
	}
	return dst, nil
}
