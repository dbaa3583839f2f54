package central

// LiveInstances reports how many instances are resident in the engine's live
// table: retired (terminal) instances have been archived and evicted, so under
// a sustained stream this stays bounded by the in-flight count.
func (e *Engine) LiveInstances() int {
	var n int
	e.Do(func() { n = len(e.instances) })
	return n
}
