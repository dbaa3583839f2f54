package hotalloc_a

import "crew/internal/binenc"

// Walks in the shape of package binenc: one method that encodes and decodes.
// The walker's decode half allocates on exempted sites, so a hot walk is
// checked on what it does itself and on what its encode half calls.

type packet struct {
	Name  string
	Steps []string
	Next  *packet
}

//crew:hotpath
func (p *packet) Walk(w *binenc.Walker) {
	w.String(&p.Name)
	binenc.Strings(w, &p.Steps) // ok: the decode half's make is exempted in binenc
	if binenc.Present(w, &p.Next) {
		p.Next.Walk(w)
	}
}

type scratchy struct {
	Name string
	buf  []byte
}

//crew:hotpath
func (p *scratchy) Walk(w *binenc.Walker) {
	if !w.Decoding() {
		p.buf = make([]byte, 8) // want "make"
	}
	w.String(&p.Name)
}

type owned struct {
	Raw []byte
	Tag *string
}

//crew:hotpath
func (p *owned) Walk(w *binenc.Walker) {
	if w.Decoding() {
		//crew:allow hotalloc decoding allocates what it returns
		p.Tag = new(string)
	}
	w.Copy(&p.Raw) // want "Copy, which may allocate"
}
