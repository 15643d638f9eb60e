#pragma once

// Fuzz entry point (DESIGN.md §7). A harness defines
//
//   void planck_fuzz_one(const std::uint8_t* data, std::size_t size);
//
// and includes this header last. It supplies a main() that replays corpus
// files and, with --smoke <inputs> [paths...], replays the corpus then
// feeds that many deterministic pseudo-random inputs, with the contracts
// as the oracle (a violation aborts).
//
// Smoke mode is deterministic (fixed splitmix64 seed and a fixed input
// count), so a ctest run checks the same inputs on any host, and a
// failure reproduces locally with the same command line.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

void planck_fuzz_one(const std::uint8_t* data, std::size_t size);

namespace planck::fuzz {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline int replay_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  planck_fuzz_one(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                  bytes.size());
  return 0;
}

/// Expands a path argument to the corpus files beneath it (or itself).
inline std::vector<std::string> corpus_files(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());  // deterministic replay order
  } else {
    files.push_back(path);
  }
  return files;
}

inline int standalone_main(int argc, char** argv) {
  std::uint64_t smoke_inputs = 0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 && i + 1 < argc) {
      smoke_inputs = std::strtoull(argv[++i], nullptr, 10);
    } else {
      paths.push_back(argv[i]);
    }
  }

  int corpus_count = 0;
  for (const auto& path : paths) {
    for (const auto& file : corpus_files(path)) {
      if (replay_file(file) != 0) return 1;
      ++corpus_count;
    }
  }
  std::printf("fuzz: replayed %d corpus input(s)\n", corpus_count);

  std::uint64_t rng = 0x9da2ee5c0f8a1ull;  // fixed: smoke is reproducible
  std::vector<std::uint8_t> input;
  for (std::uint64_t n = 0; n < smoke_inputs; ++n) {
    const std::size_t len = splitmix64(rng) % 512;
    input.resize(len);
    for (std::size_t i = 0; i < len; i += 8) {
      const std::uint64_t word = splitmix64(rng);
      for (std::size_t b = 0; b < 8 && i + b < len; ++b) {
        input[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    planck_fuzz_one(input.data(), input.size());
  }
  if (smoke_inputs > 0) {
    std::printf("fuzz: smoke ran %llu random input(s)\n",
                static_cast<unsigned long long>(smoke_inputs));
  }
  return 0;
}

}  // namespace planck::fuzz

int main(int argc, char** argv) {
  return planck::fuzz::standalone_main(argc, argv);
}
