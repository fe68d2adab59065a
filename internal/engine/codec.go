package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
)

// The one checkpoint codec. Every solver serializes its state struct
// through these helpers, so the wire format is decided in exactly one
// place. It is positional and canonical — equal states give equal
// bytes in any process, so streams may be compared and hashed:
//
//	"NKST" | version byte | 8-byte layout fingerprint | value
//
// The fingerprint is the FNV-1a hash of the state type's layout (field
// names and kinds, in declaration order). int, int64, uint64, bool and
// float64 are one little-endian 8-byte word, complex128 is two, a
// slice is its length word then its elements, arrays and structs are
// their elements in order; any other kind is an encode-time error.

const (
	stateMagic   = "NKST"
	stateVersion = 1
)

var le = binary.LittleEndian

// layout writes t's description to w; a kind the format does not carry
// is an error.
func layout(w io.Writer, t reflect.Type) error {
	switch t.Kind() {
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Bool, reflect.Float64, reflect.Complex128:
		io.WriteString(w, t.Kind().String())
		return nil
	case reflect.Slice:
		if t.Elem().Size() == 0 {
			// No bytes would back a declared length.
			return fmt.Errorf("slice of zero-size %v", t.Elem())
		}
		io.WriteString(w, "[]")
		return layout(w, t.Elem())
	case reflect.Array:
		fmt.Fprintf(w, "[%d]", t.Len())
		return layout(w, t.Elem())
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("unexported field %s", f.Name)
			}
			io.WriteString(w, f.Name+" ")
			if err := layout(w, f.Type); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
		return nil
	}
	return fmt.Errorf("unsupported kind %v", t.Kind())
}

// header returns the stream header for state type t.
func header(t reflect.Type) ([]byte, error) {
	h := fnv.New64a()
	if err := layout(h, t); err != nil {
		return nil, err
	}
	return le.AppendUint64(append([]byte(stateMagic), stateVersion), h.Sum64()), nil
}

func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return le.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint64:
		return le.AppendUint64(b, v.Uint())
	case reflect.Bool:
		if v.Bool() {
			return le.AppendUint64(b, 1)
		}
		return le.AppendUint64(b, 0)
	case reflect.Float64:
		return le.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Complex128:
		c := v.Complex()
		return le.AppendUint64(le.AppendUint64(b, math.Float64bits(real(c))), math.Float64bits(imag(c)))
	case reflect.Slice:
		b = le.AppendUint64(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i, n := 0, v.Len(); i < n; i++ {
			b = appendValue(b, v.Index(i))
		}
	case reflect.Struct:
		for i, n := 0, v.NumField(); i < n; i++ {
			b = appendValue(b, v.Field(i))
		}
	}
	return b
}

// EncodeState writes st, a state or a pointer to one, as one stream.
func EncodeState(w io.Writer, st any) error {
	v := reflect.Indirect(reflect.ValueOf(st))
	b, err := header(v.Type())
	if err != nil {
		return fmt.Errorf("engine: encoding checkpoint: %w", err)
	}
	if _, err := w.Write(appendValue(b, v)); err != nil {
		return fmt.Errorf("engine: encoding checkpoint: %w", err)
	}
	return nil
}

// decoder consumes the bytes that remain of a stream; made counts the
// bytes of the slices it has allocated.
type decoder struct {
	b    []byte
	made uint64
}

func (d *decoder) word() (uint64, error) {
	if len(d.b) < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	x := le.Uint64(d.b)
	d.b = d.b[8:]
	return x, nil
}

func (d *decoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Slice:
		n, err := d.word()
		if err != nil {
			return err
		}
		// Bound the allocation by the bytes left: an element encodes to
		// at least a third of its size in memory (a 24-byte slice header
		// to one word).
		if n > 3*uint64(len(d.b))/uint64(v.Type().Elem().Size()) {
			return fmt.Errorf("slice of %d %v declared with %d bytes left", n, v.Type().Elem(), len(d.b))
		}
		v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
		d.made += n * uint64(v.Type().Elem().Size())
		fallthrough
	case reflect.Array:
		for i, n := 0, v.Len(); i < n; i++ {
			if err := d.value(v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		for i, n := 0, v.NumField(); i < n; i++ {
			if err := d.value(v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	}
	x, err := d.word()
	if err != nil {
		return err
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		if v.OverflowInt(int64(x)) {
			return fmt.Errorf("%d overflows %v", int64(x), v.Type())
		}
		v.SetInt(int64(x))
	case reflect.Uint64:
		v.SetUint(x)
	case reflect.Bool:
		if x > 1 {
			return fmt.Errorf("bool word %#x", x)
		}
		v.SetBool(x == 1)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(x))
	case reflect.Complex128:
		y, err := d.word()
		if err != nil {
			return err
		}
		v.SetComplex(complex(math.Float64frombits(x), math.Float64frombits(y)))
	}
	return nil
}

// DecodeState reads a stream produced by EncodeState into st, a
// pointer to the same state type. Anything else — truncation, trailing
// bytes, another version, another layout — is an error; on error *st
// may be partly written.
func DecodeState(r io.Reader, st any) error {
	_, err := decodeState(r, st)
	return err
}

// decodeState is DecodeState that also returns the bytes of the slices
// it allocated for the decoded value, so tests can hold the decoder to
// its allocation bound per call.
func decodeState(r io.Reader, st any) (made uint64, err error) {
	fail := func(err error) error { return fmt.Errorf("engine: decoding checkpoint: %w", err) }
	v := reflect.ValueOf(st)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return 0, fail(fmt.Errorf("state is a %T, not a pointer", st))
	}
	v = v.Elem()
	want, err := header(v.Type())
	if err != nil {
		return 0, fail(err)
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, fail(err)
	}
	nm := len(stateMagic)
	switch {
	case len(b) < len(want):
		return 0, fail(io.ErrUnexpectedEOF)
	case string(b[:nm]) != stateMagic:
		return 0, fail(fmt.Errorf("not a state stream (magic %q)", b[:nm]))
	case b[nm] != stateVersion:
		return 0, fail(fmt.Errorf("stream version %d, this build reads version %d", b[nm], stateVersion))
	case !bytes.Equal(b[:len(want)], want):
		return 0, fail(fmt.Errorf("stream was written from a different state layout than %v", v.Type()))
	}
	d := decoder{b: b[len(want):]}
	if err := d.value(v); err != nil {
		return d.made, fail(err)
	}
	if len(d.b) != 0 {
		return d.made, fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	return d.made, nil
}

// Marshal captures a solver's checkpoint as one byte slice.
func Marshal(s Solver) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore loads a Marshal-ed checkpoint into s.
func Restore(s Solver, state []byte) error {
	return s.Restore(bytes.NewReader(state))
}
