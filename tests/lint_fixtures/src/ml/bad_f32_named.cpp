// Fixture: float-accum violation in an f32-named source. A file name earns
// no exemption: every float under src/ml or src/linalg is flagged.
float accumulate_f32(const float* values, int n) {
  float total = 0.0f;
  for (int i = 0; i < n; ++i) total += values[i];
  return total;
}
