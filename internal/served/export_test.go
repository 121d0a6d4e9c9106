package served

// JobForTest exposes a job by ID for the test suites.
func (s *Server) JobForTest(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}
