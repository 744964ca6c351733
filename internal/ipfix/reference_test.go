package ipfix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the reference decoder: the straightforward
// implementation the compiled decode path (compile.go) replaced. It
// lives in a _test.go file so the shipped package has one decoder
// while the differential harness, the fuzz target and the benchmarks
// keep their oracle.

// Decode parses one IPFIX message. templates resolves previously seen
// template IDs for this observation domain and is updated with any
// templates carried in the message (RFC 7011 §8 template management).
//
// Decode allocates a fresh Message and re-walks template metadata per
// set. The shipped decoder is DecodeInto with a compiled
// TemplateTable; the differential harness in differential_test.go
// holds the two bit-for-bit equal.
func Decode(buf []byte, templates map[uint16]Template) (*Message, error) {
	if templates == nil {
		// A caller with no template state (one-shot decode) still
		// learns templates for the duration of this message, so data
		// sets following their template in the same message decode.
		templates = make(map[uint16]Template)
	}
	if len(buf) < msgHeaderLen {
		return nil, ErrShortMessage
	}
	if binary.BigEndian.Uint16(buf[0:2]) != Version {
		return nil, ErrBadVersion
	}
	msg := &Message{Header: MessageHeader{
		Length:     binary.BigEndian.Uint16(buf[2:4]),
		ExportTime: binary.BigEndian.Uint32(buf[4:8]),
		Sequence:   binary.BigEndian.Uint32(buf[8:12]),
		DomainID:   binary.BigEndian.Uint32(buf[12:16]),
	}}
	if int(msg.Header.Length) > len(buf) || msg.Header.Length < msgHeaderLen {
		return nil, ErrShortMessage
	}
	rest := buf[msgHeaderLen:msg.Header.Length]
	for len(rest) > 0 {
		if len(rest) < setHeaderLen {
			return nil, ErrShortMessage
		}
		setID := binary.BigEndian.Uint16(rest[0:2])
		setLen := int(binary.BigEndian.Uint16(rest[2:4]))
		if setLen < setHeaderLen || setLen > len(rest) {
			return nil, ErrShortMessage
		}
		body := rest[setHeaderLen:setLen]
		switch {
		case setID == SetIDTemplate:
			ts, err := parseTemplates(body)
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				templates[t.ID] = t
				msg.Templates = append(msg.Templates, t)
			}
		case setID == SetIDOptionsTemplate:
			ts, err := parseOptionsTemplates(body)
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				templates[t.ID] = t
				msg.Templates = append(msg.Templates, t)
			}
		case setID >= MinDataSetID:
			t, ok := templates[setID]
			if !ok {
				msg.Unknown = append(msg.Unknown, RawSet{SetID: setID, Body: body})
				break
			}
			rl := t.RecordLen()
			if rl == 0 {
				return nil, fmt.Errorf("ipfix: zero-length template %d", setID)
			}
			for len(body) >= rl {
				msg.Records = append(msg.Records, DataRecord{
					TemplateID: setID,
					Data:       body[:rl],
				})
				body = body[rl:]
			}
			// Remaining bytes shorter than a record are padding
			// (RFC 7011 §3.3.1).
		default:
			// Reserved sets are skipped.
		}
		rest = rest[setLen:]
	}
	return msg, nil
}

func parseTemplates(body []byte) ([]Template, error) {
	var out []Template
	for len(body) > 0 {
		if len(body) < 4 {
			return nil, ErrShortMessage
		}
		t := Template{ID: binary.BigEndian.Uint16(body[0:2])}
		count := int(binary.BigEndian.Uint16(body[2:4]))
		body = body[4:]
		for i := 0; i < count; i++ {
			if len(body) < 4 {
				return nil, ErrShortMessage
			}
			f := FieldSpec{
				ID:     binary.BigEndian.Uint16(body[0:2]) & 0x7fff,
				Length: binary.BigEndian.Uint16(body[2:4]),
			}
			enterprise := body[0]&0x80 != 0
			body = body[4:]
			if enterprise {
				if len(body) < 4 {
					return nil, ErrShortMessage
				}
				f.Enterprise = binary.BigEndian.Uint32(body[0:4])
				body = body[4:]
			}
			t.Fields = append(t.Fields, f)
		}
		out = append(out, t)
	}
	return out, nil
}

// parseOptionsTemplates decodes an options template set body
// (RFC 7011 §3.4.2.2): template ID, total field count, scope field
// count, then the field specifiers. Scope and non-scope fields decode
// identically for fixed-length records, so the distinction is not
// retained.
func parseOptionsTemplates(body []byte) ([]Template, error) {
	var out []Template
	for len(body) > 0 {
		if len(body) < 6 {
			return nil, ErrShortMessage
		}
		t := Template{ID: binary.BigEndian.Uint16(body[0:2])}
		count := int(binary.BigEndian.Uint16(body[2:4]))
		body = body[6:] // skip the scope field count
		for i := 0; i < count; i++ {
			if len(body) < 4 {
				return nil, ErrShortMessage
			}
			t.Fields = append(t.Fields, FieldSpec{
				ID:     binary.BigEndian.Uint16(body[0:2]) & 0x7fff,
				Length: binary.BigEndian.Uint16(body[2:4]),
			})
			body = body[4:]
		}
		out = append(out, t)
	}
	return out, nil
}

// UnmarshalFlowRecord decodes a data record produced with
// FlowTemplate, field by field at fixed offsets.
func UnmarshalFlowRecord(data []byte) (FlowRecord, error) {
	if len(data) != flowRecordLen {
		return FlowRecord{}, errors.New("ipfix: flow record has wrong length")
	}
	return FlowRecord{
		SrcAddr:   binary.BigEndian.Uint32(data[0:4]),
		DstAddr:   binary.BigEndian.Uint32(data[4:8]),
		Octets:    binary.BigEndian.Uint64(data[8:16]),
		Packets:   binary.BigEndian.Uint64(data[16:24]),
		Ingress:   binary.BigEndian.Uint32(data[24:28]),
		SrcAS:     binary.BigEndian.Uint32(data[28:32]),
		StartSecs: binary.BigEndian.Uint32(data[32:36]),
		EndSecs:   binary.BigEndian.Uint32(data[36:40]),
	}, nil
}

// decodeFlowReference is the pre-compilation reference decoder: it
// re-interprets the template's field specifiers with a per-field
// switch on every record — exactly the work compileTemplate hoists to
// registration time. It is retained as the oracle for the
// differential harness and the fuzz cross-check; the compiled path
// must match it bit for bit on every input.
func decodeFlowReference(t Template, data []byte, r *FlowRecord) bool {
	rl := t.RecordLen()
	if rl == 0 || len(data) < rl {
		return false
	}
	*r = FlowRecord{}
	off := 0
	for _, f := range t.Fields {
		n := int(f.Length)
		val := data[off : off+n]
		if f.Enterprise == 0 {
			switch f.ID {
			case IESourceIPv4Address:
				r.SrcAddr = uint32(beTail(val))
			case IEDestinationIPv4:
				r.DstAddr = uint32(beTail(val))
			case IEOctetDeltaCount:
				r.Octets = beTail(val)
			case IEPacketDeltaCount:
				r.Packets = beTail(val)
			case IEIngressInterface:
				r.Ingress = uint32(beTail(val))
			case IEBgpSourceAsNumber:
				r.SrcAS = uint32(beTail(val))
			case IEFlowStartSeconds:
				r.StartSecs = uint32(beTail(val))
			case IEFlowEndSeconds:
				r.EndSecs = uint32(beTail(val))
			}
		}
		off += n
	}
	return true
}

// readStreamReference is the stream reader ReadStreamBatch replaced,
// kept as its oracle: two io.ReadFull calls per message, the length
// prefix and then the rest, straight off the reader.
func readStreamReference(c *Collector, r io.Reader, fn func(domain uint32, recs []FlowRecord)) error {
	var hdr [4]byte
	var msg []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		total := WireLen(hdr[:])
		if total < msgHeaderLen {
			return fmt.Errorf("%w: stream framing lost", ErrShortMessage)
		}
		if cap(msg) < total {
			msg = make([]byte, total)
		}
		msg = msg[:total]
		copy(msg, hdr[:])
		if _, err := io.ReadFull(r, msg[4:]); err != nil {
			return err
		}
		_ = c.HandleMessageBatch(msg, fn)
	}
}
