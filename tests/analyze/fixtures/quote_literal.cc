// Fixture: quote and comment characters inside literals must not hide
// the code after them. Both calls must fire [banned-symbol]: a '"' char
// literal is not the start of a string, and a "/*" string is not the
// start of a comment. Never compiled.

namespace fixture {

void SeedFromQuotes(char c) {
  if (c == '"') std::srand(1); const char* s = "x";
  const char* open = "/*"; std::srand(2); const char* close = "*/";
  (void)s, (void)open, (void)close;
}

}  // namespace fixture
