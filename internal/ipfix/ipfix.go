// Package ipfix implements the IP Flow Information Export protocol
// (RFC 7011) subset used by TIPSY's data collection: message framing,
// template sets, data sets, an exporter with template management and
// sequence numbering, a collector that decodes the byte stream, and
// the random packet sampling process used at the WAN's edge routers
// (the paper samples 1 out of every 4096 packets).
package ipfix

import (
	"encoding/binary"
	"errors"
)

// Version is the IPFIX protocol version number (RFC 7011 §3.1).
const Version = 10

// Wire constants.
const (
	msgHeaderLen = 16
	setHeaderLen = 4
	// SetIDTemplate is the set ID of a template set.
	SetIDTemplate = 2
	// SetIDOptionsTemplate is the set ID of an options template set.
	SetIDOptionsTemplate = 3
	// MinDataSetID is the first set ID usable for data sets.
	MinDataSetID = 256
)

// Information Element identifiers from the IANA IPFIX registry, the
// fields §4.1 of the paper names as important.
const (
	IEOctetDeltaCount   = 1   // 8 bytes
	IEPacketDeltaCount  = 2   // 8 bytes
	IESourceIPv4Address = 8   // 4 bytes
	IEIngressInterface  = 10  // 4 bytes
	IEDestinationIPv4   = 12  // 4 bytes
	IEBgpSourceAsNumber = 16  // 4 bytes
	IEFlowStartSeconds  = 150 // 4 bytes
	IEFlowEndSeconds    = 151 // 4 bytes
	IESamplingInterval  = 34  // 4 bytes
)

// Errors returned by the decoder.
var (
	ErrShortMessage = errors.New("ipfix: truncated message")
	ErrBadVersion   = errors.New("ipfix: unsupported version")
)

// FieldSpec describes one field of a template record.
type FieldSpec struct {
	ID         uint16 // information element identifier
	Length     uint16 // fixed length in bytes (variable-length not used)
	Enterprise uint32 // 0 for IANA IEs
}

// Template is an IPFIX template record.
type Template struct {
	ID     uint16
	Fields []FieldSpec
}

// RecordLen returns the fixed byte length of one data record described
// by the template.
func (t *Template) RecordLen() int {
	n := 0
	for _, f := range t.Fields {
		n += int(f.Length)
	}
	return n
}

// MessageHeader is the decoded 16-byte IPFIX message header.
type MessageHeader struct {
	Length     uint16
	ExportTime uint32 // seconds; the substrate uses simulated seconds
	Sequence   uint32 // data records sent before this message
	DomainID   uint32 // observation domain (per exporting router)
}

// Message is one decoded IPFIX message.
type Message struct {
	Header    MessageHeader
	Templates []Template
	// Records holds raw data records paired with the template that
	// describes them.
	Records []DataRecord
	// Unknown holds data sets that referenced templates the decoder
	// does not know — they arrived before their template.
	Unknown []RawSet
}

// DataRecord is one raw data record with its template.
type DataRecord struct {
	TemplateID uint16
	Data       []byte
}

// RawSet is a data set whose template the decoder has not seen yet.
// Over an unreliable transport a data set legitimately overtakes the
// template set describing it, so the decoder hands the raw body back
// instead of failing; the collector buffers it until the template
// arrives (RFC 7011 §8 template management).
type RawSet struct {
	SetID uint16
	Body  []byte
}

// marshalMessage frames a full IPFIX message from pre-encoded sets.
func marshalMessage(exportTime, seq, domain uint32, sets [][]byte) []byte {
	total := msgHeaderLen
	for _, s := range sets {
		total += len(s)
	}
	out := make([]byte, 0, total)
	out = binary.BigEndian.AppendUint16(out, Version)
	out = binary.BigEndian.AppendUint16(out, uint16(total))
	out = binary.BigEndian.AppendUint32(out, exportTime)
	out = binary.BigEndian.AppendUint32(out, seq)
	out = binary.BigEndian.AppendUint32(out, domain)
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

// marshalTemplateSet encodes a template set containing the given
// templates.
func marshalTemplateSet(templates []Template) []byte {
	body := make([]byte, 0, 64)
	for _, t := range templates {
		body = binary.BigEndian.AppendUint16(body, t.ID)
		body = binary.BigEndian.AppendUint16(body, uint16(len(t.Fields)))
		for _, f := range t.Fields {
			id := f.ID
			if f.Enterprise != 0 {
				id |= 0x8000
			}
			body = binary.BigEndian.AppendUint16(body, id)
			body = binary.BigEndian.AppendUint16(body, f.Length)
			if f.Enterprise != 0 {
				body = binary.BigEndian.AppendUint32(body, f.Enterprise)
			}
		}
	}
	set := make([]byte, 0, setHeaderLen+len(body))
	set = binary.BigEndian.AppendUint16(set, SetIDTemplate)
	set = binary.BigEndian.AppendUint16(set, uint16(setHeaderLen+len(body)))
	return append(set, body...)
}

// marshalDataSet encodes a data set of fixed-size records.
func marshalDataSet(templateID uint16, records [][]byte) []byte {
	n := setHeaderLen
	for _, r := range records {
		n += len(r)
	}
	set := make([]byte, 0, n)
	set = binary.BigEndian.AppendUint16(set, templateID)
	set = binary.BigEndian.AppendUint16(set, uint16(n))
	for _, r := range records {
		set = append(set, r...)
	}
	return set
}

// WireLen reports the framed length of the next IPFIX message in buf,
// or 0 if the header is incomplete or the version is wrong.
func WireLen(buf []byte) int {
	if len(buf) < 4 || binary.BigEndian.Uint16(buf[0:2]) != Version {
		return 0
	}
	return int(binary.BigEndian.Uint16(buf[2:4]))
}
