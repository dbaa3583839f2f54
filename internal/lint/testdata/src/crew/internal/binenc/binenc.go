// Package binenc is a minimal stub of crew/internal/binenc for the analyzer
// tests: a Walker whose primitives both encode and decode, allocating only in
// their decode half, on sites exempted the way the real package exempts them,
// and one primitive (Copy) whose decode-half allocation is not exempted.
package binenc

type Walker struct {
	decoding bool
	out, in  []byte
}

func (w *Walker) Decoding() bool { return w.decoding }

func (w *Walker) String(v *string) {
	if w.decoding {
		*v = string(w.in)
		return
	}
	w.out = append(w.out, *v...)
}

func Strings[S ~string](w *Walker, v *[]S) {
	if !w.decoding {
		for _, s := range *v {
			w.out = append(w.out, s...)
		}
		return
	}
	//crew:allow hotalloc decoding allocates what it returns
	*v = make([]S, len(w.in))
}

func Present[T any](w *Walker, p **T) bool {
	ok := *p != nil
	if w.decoding && len(w.in) > 0 {
		//crew:allow hotalloc decoding allocates what it returns
		*p = new(T)
		ok = true
	}
	return ok
}

func (w *Walker) Copy(v *[]byte) {
	if w.decoding {
		*v = make([]byte, len(w.in))
		copy(*v, w.in)
		return
	}
	w.out = append(w.out, *v...)
}
