// Package actor is a minimal stub of crew/internal/actor for the analyzer
// tests: the method names must match the real package, the behavior is
// irrelevant.
package actor

type Row interface{}

type Actor struct{}

func (a *Actor) Send(to string, mech int, kind string, payload any) {}
func (a *Actor) Mark(r Row)                                         {}
