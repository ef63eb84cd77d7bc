// Binary payload codecs for the hot-path schemas. The encodings are
// positional — fields in struct order, no names on the wire — which is why
// the compatibility policy freezes these shapes: an append that would be
// harmless in JSON silently shifts every later field here.
//
// Encoding primitives (all little-endian-free, varint-based):
//
//	string  = uvarint length, then raw bytes
//	float64 = 8 bytes, big-endian IEEE-754 bits
//	int64   = zig-zag varint
//	bool    = one byte, 0 or 1
//	list    = uvarint element count, then the elements in order
//
// Every codec is allocation-free in both directions: encoders append into a
// caller-owned buffer, decoders read scalar fields in place and may alias
// string fields to the input buffer via zero-copy views — see DecodeBinary's
// aliasing contract. A list decodes into the slice the message already
// holds, so a reused message allocates only when a list outgrows it, and a
// count is bounded by the bytes left before anything is allocated for it.
package schemav1

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// AppendMarshaler is implemented by schemas with a binary codec: the
// encoder appends the positional encoding to dst and returns the extended
// slice. It never fails and never allocates beyond dst's growth.
type AppendMarshaler interface {
	AppendBinary(dst []byte) []byte
}

// WireUnmarshaler is the decoding half: DecodeBinary parses the positional
// encoding from src.
//
// Aliasing contract: decoded string fields may alias src (zero-copy) —
// valid only until the caller's buffer is reused. Wire handlers decode and
// act within one request, which is exactly that window; anything that
// retains a decoded message beyond the handler must copy its strings.
type WireUnmarshaler interface {
	DecodeBinary(src []byte) error
}

// ErrShortBuffer reports a truncated binary payload.
var ErrShortBuffer = errors.New("schemav1: truncated binary payload")

// ErrTrailingBytes reports extra bytes after a complete binary payload —
// almost always a shape mismatch between the two sides.
var ErrTrailingBytes = errors.New("schemav1: trailing bytes after binary payload")

// --- primitives -----------------------------------------------------------

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloat64 appends the 8-byte big-endian IEEE-754 bits.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendInt64 appends a zig-zag varint.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendBool appends one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// ReadString consumes a length-prefixed string, returning a zero-copy view
// into src (see WireUnmarshaler's aliasing contract).
func ReadString(src []byte) (string, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || n > uint64(len(src)-w) {
		return "", nil, ErrShortBuffer
	}
	b := src[w : w+int(n)]
	if len(b) == 0 {
		return "", src[w:], nil
	}
	return unsafe.String(&b[0], len(b)), src[w+int(n):], nil
}

// ReadFloat64 consumes 8 big-endian bytes.
func ReadFloat64(src []byte) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, ErrShortBuffer
	}
	return math.Float64frombits(binary.BigEndian.Uint64(src)), src[8:], nil
}

// ReadInt64 consumes a zig-zag varint.
func ReadInt64(src []byte) (int64, []byte, error) {
	v, w := binary.Varint(src)
	if w <= 0 {
		return 0, nil, ErrShortBuffer
	}
	return v, src[w:], nil
}

// ReadBool consumes one byte; anything but 0 or 1 is a shape error.
func ReadBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, ErrShortBuffer
	}
	switch src[0] {
	case 0:
		return false, src[1:], nil
	case 1:
		return true, src[1:], nil
	default:
		return false, nil, fmt.Errorf("schemav1: invalid bool byte 0x%02x", src[0])
	}
}

// readCount consumes a list's uvarint element count. Every element takes at
// least minSize bytes, so a count the rest of src cannot hold is a truncation:
// a ten-byte payload claiming 2⁶⁰ elements fails here instead of sizing a
// slice for them.
func readCount(src []byte, minSize int) (int, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || n > uint64(len(src)-w)/uint64(minSize) {
		return 0, nil, ErrShortBuffer
	}
	return int(n), src[w:], nil
}

func done(rest []byte) error {
	if len(rest) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// --- kvstore --------------------------------------------------------------

// AppendBinary implements AppendMarshaler.
func (m *KVPut) AppendBinary(dst []byte) []byte {
	dst = AppendString(dst, m.Key)
	dst = AppendFloat64(dst, m.Value)
	return AppendInt64(dst, m.TTLMs)
}

// DecodeBinary implements WireUnmarshaler.
func (m *KVPut) DecodeBinary(src []byte) (err error) {
	if src, err = m.read(src); err != nil {
		return err
	}
	return done(src)
}

// minKVPut is the shortest KVPut encoding: an empty key's length byte, the
// float64 and a one-byte TTL.
const minKVPut = 1 + 8 + 1

// read consumes one KVPut and returns the rest of src.
func (m *KVPut) read(src []byte) (rest []byte, err error) {
	if m.Key, src, err = ReadString(src); err != nil {
		return nil, err
	}
	if m.Value, src, err = ReadFloat64(src); err != nil {
		return nil, err
	}
	if m.TTLMs, src, err = ReadInt64(src); err != nil {
		return nil, err
	}
	return src, nil
}

// AppendBinary implements AppendMarshaler.
func (m *KVKey) AppendBinary(dst []byte) []byte {
	return AppendString(dst, m.Key)
}

// DecodeBinary implements WireUnmarshaler.
func (m *KVKey) DecodeBinary(src []byte) (err error) {
	if m.Key, src, err = ReadString(src); err != nil {
		return err
	}
	return done(src)
}

// AppendBinary implements AppendMarshaler.
func (m *KVGetReply) AppendBinary(dst []byte) []byte {
	dst = AppendFloat64(dst, m.Value)
	return AppendBool(dst, m.Found)
}

// DecodeBinary implements WireUnmarshaler.
func (m *KVGetReply) DecodeBinary(src []byte) (err error) {
	if m.Value, src, err = ReadFloat64(src); err != nil {
		return err
	}
	if m.Found, src, err = ReadBool(src); err != nil {
		return err
	}
	return done(src)
}

// AppendBinary implements AppendMarshaler.
func (m *KVSumReply) AppendBinary(dst []byte) []byte {
	return AppendFloat64(dst, m.Sum)
}

// DecodeBinary implements WireUnmarshaler.
func (m *KVSumReply) DecodeBinary(src []byte) (err error) {
	if m.Sum, src, err = ReadFloat64(src); err != nil {
		return err
	}
	return done(src)
}

// AppendBinary implements AppendMarshaler: the puts as a list of KVPut
// encodings, then the prefixes as a list of strings.
func (m *KVExchange) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Puts)))
	for i := range m.Puts {
		dst = m.Puts[i].AppendBinary(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Prefixes)))
	for _, p := range m.Prefixes {
		dst = AppendString(dst, p)
	}
	return dst
}

// DecodeBinary implements WireUnmarshaler.
func (m *KVExchange) DecodeBinary(src []byte) (err error) {
	var n int
	if n, src, err = readCount(src, minKVPut); err != nil {
		return err
	}
	m.Puts = slices.Grow(m.Puts[:0], n)[:n]
	for i := range m.Puts {
		if src, err = m.Puts[i].read(src); err != nil {
			return err
		}
	}
	if n, src, err = readCount(src, 1); err != nil {
		return err
	}
	m.Prefixes = slices.Grow(m.Prefixes[:0], n)[:n]
	for i := range m.Prefixes {
		if m.Prefixes[i], src, err = ReadString(src); err != nil {
			return err
		}
	}
	return done(src)
}

// AppendBinary implements AppendMarshaler: the sums as a list of float64.
func (m *KVExchangeReply) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Sums)))
	for _, s := range m.Sums {
		dst = AppendFloat64(dst, s)
	}
	return dst
}

// DecodeBinary implements WireUnmarshaler.
func (m *KVExchangeReply) DecodeBinary(src []byte) (err error) {
	var n int
	if n, src, err = readCount(src, 8); err != nil {
		return err
	}
	m.Sums = slices.Grow(m.Sums[:0], n)[:n]
	for i := range m.Sums {
		if m.Sums[i], src, err = ReadFloat64(src); err != nil {
			return err
		}
	}
	return done(src)
}

// --- contractdb -----------------------------------------------------------

// AppendBinary implements AppendMarshaler.
func (m *DBRateQuery) AppendBinary(dst []byte) []byte {
	dst = AppendString(dst, m.NPG)
	dst = AppendString(dst, m.Class)
	dst = AppendString(dst, m.Region)
	dst = AppendString(dst, m.Dir)
	return AppendInt64(dst, m.AtUnix)
}

// DecodeBinary implements WireUnmarshaler.
func (m *DBRateQuery) DecodeBinary(src []byte) (err error) {
	if m.NPG, src, err = ReadString(src); err != nil {
		return err
	}
	if m.Class, src, err = ReadString(src); err != nil {
		return err
	}
	if m.Region, src, err = ReadString(src); err != nil {
		return err
	}
	if m.Dir, src, err = ReadString(src); err != nil {
		return err
	}
	if m.AtUnix, src, err = ReadInt64(src); err != nil {
		return err
	}
	return done(src)
}

// AppendBinary implements AppendMarshaler.
func (m *DBRateReply) AppendBinary(dst []byte) []byte {
	dst = AppendFloat64(dst, m.Rate)
	return AppendBool(dst, m.Found)
}

// DecodeBinary implements WireUnmarshaler.
func (m *DBRateReply) DecodeBinary(src []byte) (err error) {
	if m.Rate, src, err = ReadFloat64(src); err != nil {
		return err
	}
	if m.Found, src, err = ReadBool(src); err != nil {
		return err
	}
	return done(src)
}
