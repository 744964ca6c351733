package wan

import (
	"sort"

	"tipsy/internal/bgp"
)

// Table is a static, serializable implementation of Directory backed
// by a plain link slice — the form link metadata takes when exported
// to files or sent between processes.
type Table struct {
	links []Link
	ids   []LinkID // the IDs of links, what Links hands out
	byAS  map[bgp.ASN][]LinkID
}

// NewTable builds a Table. Links keep their own IDs; lookups are by
// ID, so the slice need not be dense.
func NewTable(links []Link) *Table {
	t := &Table{
		links: append([]Link(nil), links...),
		byAS:  make(map[bgp.ASN][]LinkID),
	}
	sort.Slice(t.links, func(i, j int) bool { return t.links[i].ID < t.links[j].ID })
	for _, l := range t.links {
		t.ids = append(t.ids, l.ID)
		t.byAS[l.PeerAS] = append(t.byAS[l.PeerAS], l.ID)
	}
	return t
}

// Link implements Directory.
func (t *Table) Link(id LinkID) (Link, bool) {
	i := sort.Search(len(t.links), func(i int) bool { return t.links[i].ID >= id })
	if i < len(t.links) && t.links[i].ID == id {
		return t.links[i], true
	}
	return Link{}, false
}

// LinksOfAS implements Directory.
func (t *Table) LinksOfAS(as bgp.ASN) []LinkID { return t.byAS[as] }

// Links implements Directory.
func (t *Table) Links() []LinkID { return t.ids }

// All returns the underlying links in ID order. Callers must not
// modify the returned slice.
func (t *Table) All() []Link { return t.links }
