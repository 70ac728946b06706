package rdf

// Dictionary maps RDF term strings to dense Value IDs and back. Encoding the
// corpus once lets every downstream stage (condition counting, capture
// groups, extraction) work on fixed-size integers, which is what keeps
// RDFind's data structures compact (§6).
type Dictionary struct {
	byStr map[string]Value
	byID  []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byStr: make(map[string]Value)}
}

// newBlockDictionary returns a dictionary presized for a block of about
// lines triples: a line holds three terms but most repeat (predicates,
// shared subjects), so one slot per line is a decent speculative size that
// avoids most of the incremental map growth without tripling the footprint.
func newBlockDictionary(lines int) *Dictionary {
	lines = max(lines, 16)
	return &Dictionary{byStr: make(map[string]Value, lines), byID: make([]string, 0, lines)}
}

// Encode interns s and returns its ID, assigning the next free ID on first
// sight.
func (d *Dictionary) Encode(s string) Value {
	if id, ok := d.byStr[s]; ok {
		return id
	}
	id := Value(len(d.byID))
	d.byStr[s] = id
	d.byID = append(d.byID, s)
	return id
}

// encodeBytes is Encode for a term sliced from an input buffer: a string is
// allocated only on first sight (a map lookup keyed by string(b) does not
// allocate).
func (d *Dictionary) encodeBytes(b []byte) Value {
	if id, ok := d.byStr[string(b)]; ok {
		return id
	}
	return d.Encode(string(b))
}

// Lookup returns the ID for s without interning it.
func (d *Dictionary) Lookup(s string) (Value, bool) {
	id, ok := d.byStr[s]
	return id, ok
}

// Decode returns the surface form of id. It returns "?" for IDs the
// dictionary has never issued, including NoValue.
func (d *Dictionary) Decode(id Value) string {
	if int(id) >= len(d.byID) {
		return "?"
	}
	return d.byID[id]
}

// Len returns the number of distinct terms interned so far.
func (d *Dictionary) Len() int { return len(d.byID) }
