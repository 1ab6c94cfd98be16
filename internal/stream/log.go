package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Log framing. The log opens with an 8-byte magic, then zero or more
// frames of [4-byte payload length][4-byte CRC32(payload)][payload].
// Length-prefixing makes the log append-only friendly (a torn tail is
// detected, earlier records stay readable); the CRC catches bit rot and
// misaligned reads.
var logMagic = [8]byte{'R', 'N', 'S', 'H', 'L', 'O', 'G', '1'}

const frameHeaderSize = 8

// Writer appends records to a log. It is not safe for concurrent use;
// callers own any buffering (wrap the destination in a bufio.Writer and
// flush it).
type Writer struct {
	w   io.Writer
	buf []byte
	n   int64
}

// NewWriter starts a log on w by writing the format magic.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(logMagic[:]); err != nil {
		return nil, fmt.Errorf("stream: writing log magic: %w", err)
	}
	return &Writer{w: w, buf: make([]byte, 0, frameHeaderSize+maxPayload)}, nil
}

// Write appends one record frame.
func (w *Writer) Write(r *Record) error {
	frame, err := appendPayload(w.buf[:frameHeaderSize], r)
	if err != nil {
		return err
	}
	w.buf = frame[:frameHeaderSize]
	body := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	if _, err := w.w.Write(frame); err != nil {
		return fmt.Errorf("stream: writing record: %w", err)
	}
	w.n++
	return nil
}

// Records returns how many records have been written.
func (w *Writer) Records() int64 { return w.n }

// Reader decodes a log sequentially. A clean end of log returns io.EOF
// from Next; every corruption mode returns a typed error (ErrBadMagic,
// ErrTruncated, ErrChecksum, ErrTooLarge, ErrBadRecord) — never a
// panic, never an unbounded allocation. Next reads each frame in two
// calls to the underlying reader; callers own any buffering (wrap a
// file or stdin in a bufio.Reader).
type Reader struct {
	r   io.Reader
	buf [maxPayload]byte
	n   int64
	off int64
}

// NewReader opens a log for reading, consuming and verifying the magic.
func NewReader(r io.Reader) (*Reader, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: log shorter than header", ErrTruncated)
	}
	if magic != logMagic {
		return nil, ErrBadMagic
	}
	return &Reader{r: r, off: int64(len(logMagic))}, nil
}

// Next returns the next record, io.EOF at a clean end of log, or a
// typed error describing the corruption.
func (rd *Reader) Next() (Record, error) {
	var hdr [frameHeaderSize]byte
	n, err := io.ReadFull(rd.r, hdr[:])
	if err == io.EOF && n == 0 {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("%w: frame header at offset %d", ErrTruncated, rd.off)
	}
	size := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if size > maxPayload {
		return Record{}, fmt.Errorf("%w: %d bytes at offset %d (max %d)",
			ErrTooLarge, size, rd.off, maxPayload)
	}
	payload := rd.buf[:size]
	if _, err := io.ReadFull(rd.r, payload); err != nil {
		return Record{}, fmt.Errorf("%w: payload at offset %d", ErrTruncated, rd.off)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Record{}, fmt.Errorf("%w: record %d at offset %d", ErrChecksum, rd.n, rd.off)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, fmt.Errorf("record %d at offset %d: %w", rd.n, rd.off, err)
	}
	rd.n++
	rd.off += int64(frameHeaderSize + size)
	return rec, nil
}

// Records returns how many records have been decoded so far.
func (rd *Reader) Records() int64 { return rd.n }
