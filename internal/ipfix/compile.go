package ipfix

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
)

// This file is the template-compiled decode path. The reference
// decoder (reference_test.go, the tests' oracle) re-interprets template
// field specifiers record by record; here the interpretation happens
// once, at template registration: each template compiles to a flat
// (offset, length, destination) op table, and the per-record work
// collapses to a handful of bounds-checked loads. The
// DecodeInto entry point appends into caller-owned message buffers so
// steady-state decode (data-only messages, templates already learned)
// performs zero heap allocations per record.

// errZeroLenTemplate is a fixed error so the hot path boxes nothing.
var errZeroLenTemplate = errors.New("ipfix: zero-length template")

// fieldKind selects the FlowRecord field a template field feeds.
type fieldKind uint8

const (
	kindSrcAddr fieldKind = iota
	kindDstAddr
	kindOctets
	kindPackets
	kindIngress
	kindSrcAS
	kindStart
	kindEnd
)

// flowOp is one compiled field decoder: read n big-endian bytes at
// offset off and store them into the field selected by kind.
type flowOp struct {
	off  uint16
	n    uint16
	kind fieldKind
}

// CompiledTemplate pairs a template with its precompiled decode plan.
type CompiledTemplate struct {
	tmpl   Template
	recLen int
	ops    []flowOp
	// std marks the canonical FlowTemplate layout, which decodes via
	// fixed offsets with no op-table walk at all.
	std bool
}

// Template returns the template this plan was compiled from.
func (ct *CompiledTemplate) Template() Template { return ct.tmpl }

// RecordLen returns the fixed byte length of one data record.
func (ct *CompiledTemplate) RecordLen() int { return ct.recLen }

// kindForIE maps an IANA information element to the FlowRecord field
// it feeds; ok is false for elements the flow schema does not carry.
func kindForIE(id uint16) (fieldKind, bool) {
	switch id {
	case IESourceIPv4Address:
		return kindSrcAddr, true
	case IEDestinationIPv4:
		return kindDstAddr, true
	case IEOctetDeltaCount:
		return kindOctets, true
	case IEPacketDeltaCount:
		return kindPackets, true
	case IEIngressInterface:
		return kindIngress, true
	case IEBgpSourceAsNumber:
		return kindSrcAS, true
	case IEFlowStartSeconds:
		return kindStart, true
	case IEFlowEndSeconds:
		return kindEnd, true
	}
	return 0, false
}

// compileTemplate builds the decode plan: one pass over the field
// specifiers accumulating offsets, keeping an op only for the fields
// the flow schema consumes (enterprise-specific and unknown IANA
// fields are skipped but still advance the offset).
func compileTemplate(t Template) *CompiledTemplate {
	ct := &CompiledTemplate{tmpl: t, recLen: t.RecordLen()}
	ops := make([]flowOp, len(t.Fields))
	w := 0
	off := 0
	for _, f := range t.Fields {
		if f.Enterprise == 0 {
			if kind, ok := kindForIE(f.ID); ok {
				ops[w].off = uint16(off)
				ops[w].n = f.Length
				ops[w].kind = kind
				w++
			}
		}
		off += int(f.Length)
	}
	ct.ops = ops[:w]
	ct.std = isStdFlowLayout(t)
	return ct
}

// isStdFlowLayout reports whether t is field-for-field the canonical
// FlowTemplate, enabling the fixed-offset fast path.
func isStdFlowLayout(t Template) bool {
	std := FlowTemplate()
	if len(t.Fields) != len(std.Fields) {
		return false
	}
	for i, f := range t.Fields {
		if f != std.Fields[i] {
			return false
		}
	}
	return true
}

// beTail reads up to the last 8 bytes of b as a big-endian integer —
// the reduced-size encoding rule (RFC 7011 §6.2): the value is
// right-aligned, so an oversized field keeps its least-significant
// bytes.
func beTail(b []byte) uint64 {
	if len(b) > 8 {
		b = b[len(b)-8:]
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// DecodeFlow decodes one data record described by this template into
// r, returning false when the record is shorter than the template's
// record length (the caller quarantines). The standard layout decodes
// with fixed offsets; other layouts walk the compiled op table.
func (ct *CompiledTemplate) DecodeFlow(data []byte, r *FlowRecord) bool {
	if ct.recLen == 0 || len(data) < ct.recLen {
		return false
	}
	if ct.std {
		r.SrcAddr = binary.BigEndian.Uint32(data[0:4])
		r.DstAddr = binary.BigEndian.Uint32(data[4:8])
		r.Octets = binary.BigEndian.Uint64(data[8:16])
		r.Packets = binary.BigEndian.Uint64(data[16:24])
		r.Ingress = binary.BigEndian.Uint32(data[24:28])
		r.SrcAS = binary.BigEndian.Uint32(data[28:32])
		r.StartSecs = binary.BigEndian.Uint32(data[32:36])
		r.EndSecs = binary.BigEndian.Uint32(data[36:40])
		return true
	}
	*r = FlowRecord{}
	for _, op := range ct.ops {
		v := beTail(data[op.off : int(op.off)+int(op.n)])
		switch op.kind {
		case kindSrcAddr:
			r.SrcAddr = uint32(v)
		case kindDstAddr:
			r.DstAddr = uint32(v)
		case kindOctets:
			r.Octets = v
		case kindPackets:
			r.Packets = v
		case kindIngress:
			r.Ingress = uint32(v)
		case kindSrcAS:
			r.SrcAS = uint32(v)
		case kindStart:
			r.StartSecs = uint32(v)
		case kindEnd:
			r.EndSecs = uint32(v)
		}
	}
	return true
}

// TemplateTable holds the compiled templates of one observation
// domain. Not safe for concurrent use; the collector serializes
// access under its own lock.
type TemplateTable struct {
	byID map[uint16]*CompiledTemplate
}

// NewTemplateTable returns an empty table.
func NewTemplateTable() *TemplateTable {
	return &TemplateTable{byID: make(map[uint16]*CompiledTemplate)}
}

// Register compiles t and installs it, replacing any previous
// template with the same ID (RFC 7011 §8).
func (tt *TemplateTable) Register(t Template) *CompiledTemplate {
	ct := compileTemplate(t)
	tt.byID[t.ID] = ct
	return ct
}

// Get returns the compiled template for id, or nil.
func (tt *TemplateTable) Get(id uint16) *CompiledTemplate { return tt.byID[id] }

// Len reports how many templates the table holds.
func (tt *TemplateTable) Len() int { return len(tt.byID) }

// messagePool recycles Message values so per-message decode state
// costs nothing in steady state. PutMessage clears the element
// storage (record data aliases network buffers; holding it would pin
// those buffers) but keeps the backing arrays.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage takes a reusable Message from the pool.
func GetMessage() *Message { return messagePool.Get().(*Message) }

// PutMessage returns m to the pool. The caller must not retain m or
// any slice of it.
func PutMessage(m *Message) {
	clear(m.Templates)
	clear(m.Records)
	clear(m.Unknown)
	m.Templates = m.Templates[:0]
	m.Records = m.Records[:0]
	m.Unknown = m.Unknown[:0]
	messagePool.Put(m)
}

// DecodeInto parses one IPFIX message into msg, reusing msg's backing
// arrays; record Data and Unknown bodies alias buf and are only valid
// until the caller reuses it. Templates carried by the message are
// compiled into tt. A nil tt decodes one-shot, learning templates for
// the duration of the message only. It fails with ErrShortMessage on
// truncated or misframed input, ErrBadVersion on a foreign version,
// and on a data set whose template describes zero bytes.
func DecodeInto(msg *Message, buf []byte, tt *TemplateTable) error {
	msg.Templates = msg.Templates[:0]
	msg.Records = msg.Records[:0]
	msg.Unknown = msg.Unknown[:0]
	if tt == nil {
		tt = NewTemplateTable()
	}
	if len(buf) < msgHeaderLen {
		return ErrShortMessage
	}
	if binary.BigEndian.Uint16(buf[0:2]) != Version {
		return ErrBadVersion
	}
	msg.Header.Length = binary.BigEndian.Uint16(buf[2:4])
	msg.Header.ExportTime = binary.BigEndian.Uint32(buf[4:8])
	msg.Header.Sequence = binary.BigEndian.Uint32(buf[8:12])
	msg.Header.DomainID = binary.BigEndian.Uint32(buf[12:16])
	if int(msg.Header.Length) > len(buf) || msg.Header.Length < msgHeaderLen {
		return ErrShortMessage
	}
	rest := buf[msgHeaderLen:msg.Header.Length]
	for len(rest) > 0 {
		if len(rest) < setHeaderLen {
			return ErrShortMessage
		}
		setID := binary.BigEndian.Uint16(rest[0:2])
		setLen := int(binary.BigEndian.Uint16(rest[2:4]))
		if setLen < setHeaderLen || setLen > len(rest) {
			return ErrShortMessage
		}
		body := rest[setHeaderLen:setLen]
		switch {
		case setID == SetIDTemplate:
			var err error
			msg.Templates, err = tt.registerSet(msg.Templates, body, false)
			if err != nil {
				return err
			}
		case setID == SetIDOptionsTemplate:
			var err error
			msg.Templates, err = tt.registerSet(msg.Templates, body, true)
			if err != nil {
				return err
			}
		case setID >= MinDataSetID:
			ct := tt.byID[setID]
			if ct == nil {
				msg.Unknown = append(msg.Unknown, RawSet{SetID: setID, Body: body})
				break
			}
			if ct.recLen == 0 {
				return errZeroLenTemplate
			}
			// Fixed-size records; a remainder shorter than one record
			// is padding (RFC 7011 §3.3.1). Grow once, fill by index —
			// no per-record allocation once the buffer is warm.
			rl := ct.recLen
			n := len(body) / rl
			base := len(msg.Records)
			msg.Records = slices.Grow(msg.Records, n)[:base+n]
			for i := 0; i < n; i++ {
				msg.Records[base+i].TemplateID = setID
				msg.Records[base+i].Data = body[i*rl : (i+1)*rl]
			}
		default:
			// Reserved sets are skipped.
		}
		rest = rest[setLen:]
	}
	return nil
}

// registerSet parses one (options) template set body, compiles and
// registers each template, and appends the parsed templates to dst.
// The wire grammar matches the reference decoder's exactly, including
// the quirk that options-template parsing does not consume enterprise
// numbers. Parsing is two-pass — validate and
// count, then fill — so a malformed set registers nothing and the
// steady-state path stays free of per-field allocation.
func (tt *TemplateTable) registerSet(dst []Template, body []byte, options bool) ([]Template, error) {
	nTemplates, nFields, err := scanTemplateSet(body, options)
	if err != nil {
		return dst, err
	}
	var fields []FieldSpec // allocated only if a template is new or changed
	base := len(dst)
	dst = slices.Grow(dst, nTemplates)[:base+nTemplates]
	hdr := 4
	if options {
		hdr = 6
	}
	fw := 0
	for ti := 0; ti < nTemplates; ti++ {
		id := binary.BigEndian.Uint16(body[0:2])
		count := int(binary.BigEndian.Uint16(body[2:4]))
		body = body[hdr:]
		// Exporters refresh templates periodically (RFC 7011 §8.1); a
		// re-announcement identical to the registered template reuses
		// the existing compilation and allocates nothing.
		if ct := tt.byID[id]; ct != nil && len(ct.tmpl.Fields) == count {
			if n, same := matchFieldSpecs(ct.tmpl.Fields, body, options); same {
				body = body[n:]
				dst[base+ti] = ct.tmpl
				continue
			}
		}
		if fields == nil {
			fields = make([]FieldSpec, nFields)
		}
		f0 := fw
		for i := 0; i < count; i++ {
			fields[fw].ID = binary.BigEndian.Uint16(body[0:2]) & 0x7fff
			fields[fw].Length = binary.BigEndian.Uint16(body[2:4])
			enterprise := !options && body[0]&0x80 != 0
			body = body[4:]
			if enterprise {
				fields[fw].Enterprise = binary.BigEndian.Uint32(body[0:4])
				body = body[4:]
			}
			fw++
		}
		dst[base+ti].ID = id
		if fw > f0 {
			dst[base+ti].Fields = fields[f0:fw:fw]
		} else {
			// Keep nil (not empty) so the parsed template compares
			// equal to the reference parser's output.
			dst[base+ti].Fields = nil
		}
		tt.Register(dst[base+ti])
	}
	return dst, nil
}

// matchFieldSpecs reports whether the wire field specifiers at the
// start of body encode exactly specs, and how many bytes they span.
// The caller has already validated the body (scanTemplateSet) and
// matched the field count.
func matchFieldSpecs(specs []FieldSpec, body []byte, options bool) (n int, same bool) {
	for i := range specs {
		id := binary.BigEndian.Uint16(body[n:]) & 0x7fff
		length := binary.BigEndian.Uint16(body[n+2:])
		enterprise := uint32(0)
		wantEnt := !options && body[n]&0x80 != 0
		n += 4
		if wantEnt {
			enterprise = binary.BigEndian.Uint32(body[n:])
			n += 4
		}
		if specs[i].ID != id || specs[i].Length != length || specs[i].Enterprise != enterprise {
			return 0, false
		}
	}
	return n, true
}

// scanTemplateSet validates the set body and counts templates and
// total field specifiers, without allocating or mutating anything.
func scanTemplateSet(body []byte, options bool) (nTemplates, nFields int, err error) {
	hdr := 4
	if options {
		hdr = 6
	}
	for len(body) > 0 {
		if len(body) < hdr {
			return 0, 0, ErrShortMessage
		}
		count := int(binary.BigEndian.Uint16(body[2:4]))
		body = body[hdr:]
		for i := 0; i < count; i++ {
			if len(body) < 4 {
				return 0, 0, ErrShortMessage
			}
			enterprise := !options && body[0]&0x80 != 0
			body = body[4:]
			if enterprise {
				if len(body) < 4 {
					return 0, 0, ErrShortMessage
				}
				body = body[4:]
			}
			nFields++
		}
		nTemplates++
	}
	return nTemplates, nFields, nil
}
