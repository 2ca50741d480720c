package workflow

// Retained reports how many runs e still holds and whether run id is
// one of them.
func Retained(e *Engine, id string) (n int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok = e.runs[id]
	return len(e.runs), ok
}
