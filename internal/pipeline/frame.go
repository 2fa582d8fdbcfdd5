// Package pipeline is the streaming ingest subsystem behind mmlabd: a
// long-running daemon that accepts many concurrent binary diag streams
// (TCP and unix sockets) and runs them through a bounded
// decode → extract → route → aggregate pipeline with explicit
// backpressure, per-connection supervision, and a graceful SIGTERM drain
// that checkpoints live per-carrier catalogs and aggregates to disk. The batch producers build a world and write a
// file; this package is the first piece of the codebase that runs
// forever instead of to completion.
package pipeline

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The ingest wire protocol. A connection opens with a hello identifying
// the stream, then carries length-prefixed frames whose data payloads
// concatenate into an ordinary diag byte stream (the existing sib wire
// format — 13-byte record header plus sealed envelope). The daemon's
// decode stage feeds those payload bytes to a resynchronizing
// sib.StreamScanner, so payload damage — a feeder replaying a corrupted
// capture, a transport cut mid-record — costs exactly the damaged
// records and nothing after them.
//
//	hello:  magic uint32 LE ("MMLB") | version byte |
//	        carrierLen uvarint, carrier bytes |
//	        streamLen uvarint, stream bytes |
//	        seq uvarint
//	frame:  type byte ('D' data, 'E' end, 'A' ack) | payloadLen uint32 LE | payload
//
// 'E' marks the clean end of the stream (the feeder got everything out).
// A connection that dies without it is a disconnect: the daemon keeps
// the stream's extraction state and a reconnect with the same identity
// resumes it. seq counts the sender's connections for this stream (0
// for the first); the daemon admits same-stream connections strictly in
// seq order, so a reconnect racing the still-draining handler of the
// connection it replaces cannot replay the stream out of order.
//
// 'A' flows the other way — daemon to feeder — and carries a uvarint
// record count. The first ack on every connection is the resume point:
// how many of the stream's records the daemon owns (scanned into its
// pipeline, or restored from its checkpoint after a restart), i.e. the
// index of the record it wants next. It is sent after the connection
// passes the stream's turnstile, so it already accounts for everything
// an earlier connection delivered. Later acks on the same connection
// report the durable high-water mark: how many records the last written
// checkpoint covers. A feeder may discard its replay buffer up to a
// durable ack, and after a daemon crash it rewinds to the resume point
// of its next connection — together that is exactly-once ingest across
// daemon restarts.
const (
	helloMagic   uint32 = 0x424C4D4D // "MMLB" little-endian
	helloVersion byte   = 1

	frameData byte = 'D'
	frameEnd  byte = 'E'
	frameAck  byte = 'A'

	// maxLabelLen bounds the hello labels; maxFramePayload bounds a
	// single frame so a corrupt length cannot trigger a huge allocation.
	maxLabelLen     = 256
	maxFramePayload = 1 << 20
)

// Protocol errors.
var (
	ErrBadHello = errors.New("pipeline: malformed hello")
	ErrBadFrame = errors.New("pipeline: malformed frame")
)

// Hello identifies one diag stream: the carrier it belongs to and a
// stream name unique within the carrier (a device, a probe, a feeder).
type Hello struct {
	Carrier string
	Stream  string
	// Seq is the sender's connection count for this stream; reconnects
	// carry increasing values so the daemon can order them.
	Seq uint64
}

// WriteHello writes the connection preamble.
func WriteHello(w io.Writer, h Hello) error {
	if len(h.Carrier) > maxLabelLen || len(h.Stream) > maxLabelLen {
		return fmt.Errorf("%w: label too long", ErrBadHello)
	}
	buf := binary.LittleEndian.AppendUint32(nil, helloMagic)
	buf = append(buf, helloVersion)
	buf = binary.AppendUvarint(buf, uint64(len(h.Carrier)))
	buf = append(buf, h.Carrier...)
	buf = binary.AppendUvarint(buf, uint64(len(h.Stream)))
	buf = append(buf, h.Stream...)
	buf = binary.AppendUvarint(buf, h.Seq)
	_, err := w.Write(buf)
	return err
}

// ReadHello reads and validates the connection preamble.
func ReadHello(r *bufio.Reader) (Hello, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Hello{}, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	if binary.LittleEndian.Uint32(hdr[:]) != helloMagic {
		return Hello{}, fmt.Errorf("%w: bad magic", ErrBadHello)
	}
	if hdr[4] != helloVersion {
		return Hello{}, fmt.Errorf("%w: version %d", ErrBadHello, hdr[4])
	}
	var h Hello
	var err error
	if h.Carrier, err = readLabel(r); err != nil {
		return Hello{}, err
	}
	if h.Stream, err = readLabel(r); err != nil {
		return Hello{}, err
	}
	if h.Seq, err = binary.ReadUvarint(r); err != nil {
		return Hello{}, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	return h, nil
}

func readLabel(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	if n > maxLabelLen {
		return "", fmt.Errorf("%w: label length %d", ErrBadHello, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	return string(b), nil
}

// FrameHeader encodes a data-frame header for a payload of n bytes —
// exposed so a feeder can deliberately cut a frame short to model a
// mid-record disconnect.
func FrameHeader(n int) [5]byte {
	var hdr [5]byte
	hdr[0] = frameData
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
	return hdr
}

// WriteFrame writes one data frame carrying payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("%w: payload %d", ErrBadFrame, len(payload))
	}
	hdr := FrameHeader(len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteEnd writes the end-of-stream frame.
func WriteEnd(w io.Writer) error {
	hdr := [5]byte{frameEnd}
	_, err := w.Write(hdr[:])
	return err
}

// WriteAck writes a daemon→feeder ack frame carrying a record count.
func WriteAck(w io.Writer, seq uint64) error {
	payload := binary.AppendUvarint(nil, seq)
	buf := make([]byte, 0, 5+len(payload))
	buf = append(buf, frameAck)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// maxAckPayload bounds an ack frame (a uvarint is at most 10 bytes).
const maxAckPayload = 10

// ReadAck reads one ack frame off a feeder's connection.
func ReadAck(r *bufio.Reader) (uint64, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: ack: %v", ErrBadFrame, noEOF(err))
	}
	if hdr[0] != frameAck {
		return 0, fmt.Errorf("%w: expected ack, got type %#x", ErrBadFrame, hdr[0])
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n == 0 || n > maxAckPayload {
		return 0, fmt.Errorf("%w: ack payload %d", ErrBadFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, fmt.Errorf("%w: ack: %v", ErrBadFrame, noEOF(err))
	}
	seq, used := binary.Uvarint(payload)
	if used <= 0 {
		return 0, fmt.Errorf("%w: ack varint", ErrBadFrame)
	}
	return seq, nil
}

// FrameReader presents the data payloads of a framed connection as one
// contiguous byte stream. Read returns io.EOF only at a clean end frame;
// a connection that dies mid-stream (or mid-frame) yields a non-EOF
// error, which the scanner above surfaces as a disconnect rather than a
// finished stream.
type FrameReader struct {
	r         *bufio.Reader
	remaining int
	end       bool
	err       error
}

// NewFrameReader wraps the framed connection r.
func NewFrameReader(r *bufio.Reader) *FrameReader { return &FrameReader{r: r} }

// End reports whether the clean end-of-stream frame was seen.
func (fr *FrameReader) End() bool { return fr.end }

// Read implements io.Reader over the concatenated data payloads.
func (fr *FrameReader) Read(p []byte) (int, error) {
	if fr.end {
		return 0, io.EOF
	}
	if fr.err != nil {
		return 0, fr.err
	}
	for fr.remaining == 0 {
		var hdr [5]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			// EOF between frames is still not a clean end — only the
			// end frame is. Map it so the decode stage treats the
			// connection as disconnected, not finished.
			fr.err = fmt.Errorf("pipeline: connection cut: %w", noEOF(err))
			return 0, fr.err
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		switch hdr[0] {
		case frameData:
			if n > maxFramePayload {
				fr.err = fmt.Errorf("%w: payload %d", ErrBadFrame, n)
				return 0, fr.err
			}
			fr.remaining = int(n)
		case frameEnd:
			if n != 0 {
				fr.err = fmt.Errorf("%w: end frame with payload", ErrBadFrame)
				return 0, fr.err
			}
			fr.end = true
			return 0, io.EOF
		default:
			fr.err = fmt.Errorf("%w: type %#x", ErrBadFrame, hdr[0])
			return 0, fr.err
		}
	}
	if len(p) > fr.remaining {
		p = p[:fr.remaining]
	}
	n, err := fr.r.Read(p)
	fr.remaining -= n
	if err != nil {
		fr.err = fmt.Errorf("pipeline: connection cut: %w", noEOF(err))
		if n > 0 {
			return n, nil
		}
		return 0, fr.err
	}
	return n, nil
}

// noEOF upgrades io.EOF to io.ErrUnexpectedEOF so it never reads as a
// clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
