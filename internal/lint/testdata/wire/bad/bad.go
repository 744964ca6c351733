// Package fixture violates the wire-encoder conventions: dropped
// write errors.
package fixture

import (
	"encoding/binary"
	"io"
)

// Header is wire-safe on its own.
type Header struct {
	Version uint16
	Length  uint16
}

// EncodeHeader drops the binary.Write error outright.
func EncodeHeader(w io.Writer, h Header) {
	binary.Write(w, binary.BigEndian, h)
}

// EncodeBlank discards the error into the blank identifier.
func EncodeBlank(w io.Writer, h Header) {
	_ = binary.Write(w, binary.BigEndian, h)
}

// Flush drops the short-write information from the io.Writer.
func Flush(w io.Writer, buf []byte) {
	w.Write(buf)
}
