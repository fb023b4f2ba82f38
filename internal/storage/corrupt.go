package storage

import (
	"errors"
	"fmt"
)

// ErrCorruptBlock is the sentinel all block-corruption errors wrap. Match
// with errors.Is; the carrying CorruptBlockError (errors.As) names the
// file, block, and offset. The engine classifies corruption as PERMANENT —
// re-reading flipped bits yields the same flipped bits — and, when the
// corrupt file is a derived index variant, quarantines it in the catalog
// and re-plans on the original input.
var ErrCorruptBlock = errors.New("corrupt block")

// ErrUnsupportedFormat is wrapped by Open when the file is a well-formed
// record file in a format this build no longer reads (the "MANIMAL2",
// "MANIMAL3" and "MANIMAL4" trailers). The message names the file's format
// and the remedy: regenerate inputs, rebuild indexes.
var ErrUnsupportedFormat = errors.New("unsupported record-file format")

// ErrMalformedFile is wrapped by Open when the header, trailer or footer do
// not parse as the current format: not a record file, truncated, or
// damaged where no checksum covers it.
var ErrMalformedFile = errors.New("malformed record file")

// malformed is a readMeta error wrapping ErrMalformedFile.
func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformedFile, fmt.Sprintf(format, args...))
}

// CorruptBlockError reports that a segment of a record file's block failed
// its CRC32C verification or could not be decoded. It wraps ErrCorruptBlock
// (and the underlying decode error, if any).
type CorruptBlockError struct {
	// Path is the record file.
	Path string
	// Block is the zero-based block index within the file.
	Block int
	// Offset is the block's byte offset within the file.
	Offset int64
	// Err is the underlying decoder error; nil for pure checksum mismatches.
	Err error
}

func (e *CorruptBlockError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("storage: %s: corrupt block %d at offset %d: %v", e.Path, e.Block, e.Offset, e.Err)
	}
	return fmt.Sprintf("storage: %s: corrupt block %d at offset %d: checksum mismatch", e.Path, e.Block, e.Offset)
}

// Unwrap exposes the underlying cause chain. errors.Is(err,
// ErrCorruptBlock) matches regardless of cause via Is.
func (e *CorruptBlockError) Unwrap() error { return e.Err }

// Is matches the ErrCorruptBlock sentinel.
func (e *CorruptBlockError) Is(target error) bool { return target == ErrCorruptBlock }

// corruptBlock wraps err (which may be nil for checksum mismatches) as a
// CorruptBlockError for block i of r.
func (r *Reader) corruptBlock(i int, err error) error {
	return &CorruptBlockError{Path: r.path, Block: i, Offset: r.blocks[i].offset, Err: err}
}
