// The versioned artifact codec (service/artifact.hpp): round-trips for
// every kind, byte-exact golden files pinning the on-disk format, and the
// structured-rejection matrix (truncation, bit flips, version bumps,
// kind confusion, payload garbage). Readers must never throw: every
// corruption comes back as an ArtifactError.
//
// Golden files live in tests/data/ and are compared byte-for-byte: the
// format is persistence, so "same logical value, different bytes" is a
// breaking change. Regenerate deliberately with
// CROWDRANK_UPDATE_GOLDEN=1 (and bump the schema constants when the
// layout really changed).
#include "service/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "crowd/vote.hpp"
#include "graph/preference_graph.hpp"
#include "graph/task_graph.hpp"
#include "util/matrix.hpp"
#include "util/sparse_matrix.hpp"

namespace crowdrank::service::artifact {
namespace {

namespace fs = std::filesystem;

// -- fixtures ------------------------------------------------------------

VoteBatch sample_votes() {
  VoteBatch votes;
  votes.push_back({0, 0, 1, true});
  votes.push_back({1, 1, 2, false});
  votes.push_back({2, 0, 2, true});
  votes.push_back({0, 2, 3, false});
  return votes;
}

TaskGraph sample_task_graph() {
  TaskGraph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(0, 3);
  return graph;
}

PreferenceGraph sample_preference_graph() {
  PreferenceGraph graph(3);
  graph.set_weight(0, 1, 0.75);
  graph.set_weight(1, 0, 0.25);
  graph.set_weight(1, 2, 1.0);
  return graph;
}

SparseMatrix sample_sparse() {
  const std::vector<std::size_t> row_ptr{0, 2, 3, 3};
  const std::vector<std::size_t> col_idx{0, 2, 1};
  const std::vector<double> values{1.5, -2.0, 0.125};
  return SparseMatrix::from_csr(3, 3, row_ptr, col_idx, values);
}

Matrix sample_matrix() {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(0, 2) = -0.5;
  m(1, 1) = 3.25;
  return m;
}

RankedResult sample_result() {
  RankedResult result;
  result.outcome = JobOutcome::Degraded;
  result.stage = PipelineStage::Done;
  result.reason = "partial ranking";
  result.ranking.order = {3, 0, 2};
  result.ranking.excluded = {1};
  result.hardening.input_votes = 10;
  result.hardening.retained_votes = 8;
  result.hardening.dropped_out_of_range = 1;
  result.hardening.dropped_self = 1;
  result.log_probability = -2.5;
  return result;
}

// -- round trips ---------------------------------------------------------

TEST(Artifact, VoteBatchRoundTrips) {
  const VoteBatch votes = sample_votes();
  const Result<VoteBatch> back = decode_votes(encode(votes));
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  ASSERT_EQ(back.value->size(), votes.size());
  for (std::size_t k = 0; k < votes.size(); ++k) {
    EXPECT_EQ((*back.value)[k].worker, votes[k].worker);
    EXPECT_EQ((*back.value)[k].i, votes[k].i);
    EXPECT_EQ((*back.value)[k].j, votes[k].j);
    EXPECT_EQ((*back.value)[k].prefers_i, votes[k].prefers_i);
  }
}

TEST(Artifact, EmptyVoteBatchRoundTrips) {
  const Result<VoteBatch> back = decode_votes(encode(VoteBatch{}));
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  EXPECT_TRUE(back.value->empty());
}

TEST(Artifact, TaskGraphRoundTrips) {
  const TaskGraph graph = sample_task_graph();
  const Result<TaskGraph> back = decode_task_graph(encode(graph));
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  EXPECT_EQ(back.value->vertex_count(), graph.vertex_count());
  ASSERT_EQ(back.value->edge_count(), graph.edge_count());
  for (std::size_t k = 0; k < graph.edges().size(); ++k) {
    EXPECT_EQ(back.value->edges()[k], graph.edges()[k]);
  }
}

TEST(Artifact, PreferenceGraphRoundTrips) {
  const PreferenceGraph graph = sample_preference_graph();
  const Result<PreferenceGraph> back =
      decode_preference_graph(encode(graph));
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  ASSERT_EQ(back.value->vertex_count(), graph.vertex_count());
  for (VertexId from = 0; from < graph.vertex_count(); ++from) {
    for (VertexId to = 0; to < graph.vertex_count(); ++to) {
      if (from == to) continue;
      EXPECT_EQ(back.value->weight(from, to), graph.weight(from, to))
          << from << "->" << to;
    }
  }
}

TEST(Artifact, SparseMatrixRoundTrips) {
  const SparseMatrix matrix = sample_sparse();
  const Result<SparseMatrix> back = decode_sparse_matrix(encode(matrix));
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  EXPECT_EQ(back.value->rows(), matrix.rows());
  EXPECT_EQ(back.value->cols(), matrix.cols());
  ASSERT_EQ(back.value->values().size(), matrix.values().size());
  for (std::size_t k = 0; k < matrix.values().size(); ++k) {
    EXPECT_EQ(back.value->values()[k], matrix.values()[k]);
  }
}

TEST(Artifact, DenseMatrixRoundTrips) {
  const Matrix matrix = sample_matrix();
  const Result<Matrix> back = decode_matrix(encode(matrix));
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  ASSERT_EQ(back.value->rows(), matrix.rows());
  ASSERT_EQ(back.value->cols(), matrix.cols());
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      EXPECT_EQ((*back.value)(r, c), matrix(r, c));
    }
  }
}

TEST(Artifact, RankedResultRoundTrips) {
  const RankedResult result = sample_result();
  const Result<RankedResult> back = decode_result(encode(result));
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  EXPECT_EQ(*back.value, result);
}

TEST(Artifact, EncodingIsDeterministic) {
  EXPECT_EQ(encode(sample_votes()), encode(sample_votes()));
  EXPECT_EQ(encode(sample_result()), encode(sample_result()));
}

TEST(Artifact, PeekKindIdentifiesFrames) {
  const Result<Kind> kind = peek_kind(encode(sample_votes()));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind.value, Kind::VoteBatch);
  const Result<Kind> result_kind = peek_kind(encode(sample_result()));
  ASSERT_TRUE(result_kind.ok());
  EXPECT_EQ(*result_kind.value, Kind::RankedResult);
}

// -- golden files: the bytes ARE the format ------------------------------

std::string golden_dir() { return CROWDRANK_TEST_DATA_DIR; }

void check_golden(const std::string& name, const std::string& bytes) {
  const fs::path path = fs::path(golden_dir()) / name;
  if (std::getenv("CROWDRANK_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.good()) << "cannot write golden " << path;
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good())
      << "missing golden file " << path
      << " (regenerate with CROWDRANK_UPDATE_GOLDEN=1)";
  const std::string stored((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, stored)
      << name << ": encoded bytes diverged from the golden file — this is "
      << "an on-disk format change; bump the schema version";
}

TEST(ArtifactGolden, VoteBatchBytesArePinned) {
  check_golden("votes.crart", encode(sample_votes()));
}

TEST(ArtifactGolden, TaskGraphBytesArePinned) {
  check_golden("task_graph.crart", encode(sample_task_graph()));
}

TEST(ArtifactGolden, PreferenceGraphBytesArePinned) {
  check_golden("preference_graph.crart", encode(sample_preference_graph()));
}

TEST(ArtifactGolden, SparseMatrixBytesArePinned) {
  check_golden("sparse_matrix.crart", encode(sample_sparse()));
}

TEST(ArtifactGolden, DenseMatrixBytesArePinned) {
  check_golden("dense_matrix.crart", encode(sample_matrix()));
}

TEST(ArtifactGolden, RankedResultBytesArePinned) {
  check_golden("ranked_result.crart", encode(sample_result()));
}

TEST(ArtifactGolden, GoldenFilesStillDecode) {
  // The stored bytes must decode with today's reader (not just match
  // today's writer): this is the backward-compatibility half of the pin.
  for (const char* name : {"votes.crart", "task_graph.crart",
                           "preference_graph.crart", "sparse_matrix.crart",
                           "dense_matrix.crart", "ranked_result.crart"}) {
    const Result<std::string> bytes =
        read_file((fs::path(golden_dir()) / name).string());
    ASSERT_TRUE(bytes.ok()) << name << ": " << bytes.error.to_string();
    EXPECT_TRUE(peek_kind(*bytes.value).ok()) << name;
  }
  const Result<std::string> bytes = read_file(
      (fs::path(golden_dir()) / "ranked_result.crart").string());
  ASSERT_TRUE(bytes.ok());
  const Result<RankedResult> result = decode_result(*bytes.value);
  ASSERT_TRUE(result.ok()) << result.error.to_string();
  EXPECT_EQ(*result.value, sample_result());
}

// -- structured rejection ------------------------------------------------

TEST(ArtifactReject, TooSmall) {
  EXPECT_EQ(decode_votes("").error.code, ErrorCode::TooSmall);
  EXPECT_EQ(decode_votes("CRAF").error.code, ErrorCode::TooSmall);
}

TEST(ArtifactReject, BadMagic) {
  std::string bytes = encode(sample_votes());
  bytes[0] = 'X';
  EXPECT_EQ(decode_votes(bytes).error.code, ErrorCode::BadMagic);
}

TEST(ArtifactReject, TruncationAtEveryPrefix) {
  // Any strict prefix must be rejected (never misread, never thrown).
  const std::string bytes = encode(sample_votes());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const Result<VoteBatch> back = decode_votes(bytes.substr(0, len));
    EXPECT_FALSE(back.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_NE(back.error.code, ErrorCode::None);
  }
}

TEST(ArtifactReject, EveryBitFlipIsCaught) {
  // Flip one bit at every byte position past the magic: the checksum (or
  // an earlier header check) must reject each one. This is the corruption
  // contract of the result cache's disk tier.
  const std::string original = encode(sample_votes());
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    std::string corrupted = original;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    const Result<VoteBatch> back = decode_votes(corrupted);
    EXPECT_FALSE(back.ok()) << "bit flip at byte " << pos << " decoded";
  }
}

TEST(ArtifactReject, FutureFormatVersion) {
  // The format version is checked before the checksum: a reader that sees
  // a future frame revision says so, instead of reporting corruption
  // (the future writer may checksum differently).
  std::string bytes = encode(sample_votes());
  bytes[4] = static_cast<char>(kFormatVersion + 1);  // little-endian u32
  EXPECT_EQ(decode_votes(bytes).error.code, ErrorCode::BadFormatVersion);
}

TEST(ArtifactReject, FutureSchemaVersion) {
  // A validly framed artifact of a schema revision this reader does not
  // know: checksum passes, schema is rejected.
  const std::string payload = "\0\0\0\0\0\0\0\0";  // zero-count payload
  const std::string bytes =
      detail::frame(Kind::VoteBatch, kVoteBatchSchema + 1,
                    std::string_view(payload.data(), 8));
  EXPECT_EQ(decode_votes(bytes).error.code, ErrorCode::BadSchemaVersion);
}

TEST(ArtifactReject, WrongKind) {
  EXPECT_EQ(decode_votes(encode(sample_task_graph())).error.code,
            ErrorCode::WrongKind);
  EXPECT_EQ(decode_result(encode(sample_votes())).error.code,
            ErrorCode::WrongKind);
}

TEST(ArtifactReject, BadPayload) {
  // Validly framed garbage: declared vote count far beyond the bytes.
  std::string payload(8, '\0');
  payload[0] = '\x40';  // count = 64, no vote records follow
  const std::string bytes =
      detail::frame(Kind::VoteBatch, kVoteBatchSchema, payload);
  EXPECT_EQ(decode_votes(bytes).error.code, ErrorCode::BadPayload);
}

TEST(ArtifactReject, TrailingBytes) {
  // detail::frame checksums the declared span only; extra bytes after the
  // checksum are a size mismatch, not silently ignored.
  std::string bytes = encode(sample_votes());
  bytes += "extra";
  EXPECT_FALSE(decode_votes(bytes).ok());
}

std::string u64le(std::uint64_t value) {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
  return out;
}

TEST(ArtifactReject, ForgedVertexCountAtU64MaxIsRejected) {
  // n == UINT64_MAX once made the CSR decoders' `can_take(n + 1, 8)` wrap
  // to can_take(0, 8) and pass, sizing row_ptr empty while the `r <= n`
  // fill loop wrote out of bounds forever. A validly checksummed frame
  // (the checksum seed is public) must come back as BadPayload instead.
  const std::string graph_payload =
      u64le(std::numeric_limits<std::uint64_t>::max()) + u64le(0);
  EXPECT_EQ(decode_preference_graph(
                detail::frame(Kind::PreferenceGraph, kPreferenceGraphSchema,
                              graph_payload))
                .error.code,
            ErrorCode::BadPayload);
  const std::string matrix_payload =
      u64le(std::numeric_limits<std::uint64_t>::max()) + u64le(3) + u64le(0);
  EXPECT_EQ(decode_sparse_matrix(detail::frame(Kind::SparseMatrix,
                                               kSparseMatrixSchema,
                                               matrix_payload))
                .error.code,
            ErrorCode::BadPayload);
}

TEST(ArtifactReject, HugeDeclaredVertexCountIsRejectedNotAllocated) {
  // A 32-byte frame declaring 2^62 vertices must be rejected structurally,
  // not answered with an enormous allocation whose std::bad_alloc escapes
  // the decoder (readers never throw).
  const std::string payload = u64le(std::uint64_t{1} << 62) + u64le(0);
  EXPECT_EQ(decode_task_graph(
                detail::frame(Kind::TaskGraph, kTaskGraphSchema, payload))
                .error.code,
            ErrorCode::BadPayload);
  EXPECT_EQ(decode_preference_graph(
                detail::frame(Kind::PreferenceGraph, kPreferenceGraphSchema,
                              payload))
                .error.code,
            ErrorCode::BadPayload);
}

TEST(Artifact, LargeEdgelessPreferenceGraphDecodesInLinearMemory) {
  // A validly framed, edgeless graph on 2^16 vertices: the payload is
  // n + 3 u64s (about 512 KiB), and decoding it must cost O(n + m) memory,
  // not an n x n weight store (32 GiB here).
  constexpr std::uint64_t kN = std::uint64_t{1} << 16;
  std::string payload = u64le(kN) + u64le(0);
  for (std::uint64_t r = 0; r <= kN; ++r) {
    payload += u64le(0);
  }
  const std::string bytes =
      detail::frame(Kind::PreferenceGraph, kPreferenceGraphSchema, payload);
  const Result<PreferenceGraph> back = decode_preference_graph(bytes);
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  EXPECT_EQ(back.value->vertex_count(), kN);
  EXPECT_EQ(back.value->edge_count(), 0u);
  EXPECT_TRUE(back.value->in_nodes().empty());
  EXPECT_TRUE(back.value->out_nodes().empty());
  EXPECT_EQ(encode(*back.value), bytes);
}

TEST(ArtifactReject, BadDirectionByte) {
  // Validly framed vote record whose direction byte is neither 0 nor 1.
  std::string payload(8 + 25, '\0');
  payload[0] = '\x01';          // count = 1
  payload[8 + 24] = '\x02';     // direction byte = 2
  const std::string bytes =
      detail::frame(Kind::VoteBatch, kVoteBatchSchema, payload);
  EXPECT_EQ(decode_votes(bytes).error.code, ErrorCode::BadPayload);
}

// -- file tier -----------------------------------------------------------

TEST(ArtifactFile, WriteReadRoundTrips) {
  const fs::path dir =
      fs::temp_directory_path() / "crowdrank_artifact_test";
  fs::create_directories(dir);
  const std::string path = (dir / "roundtrip.crart").string();
  const std::string bytes = encode(sample_result());
  ASSERT_FALSE(write_file(path, bytes).has_value());
  const Result<std::string> back = read_file(path);
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  EXPECT_EQ(*back.value, bytes);
  // No .tmp residue: the write is rename-into-place.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(ArtifactFile, MissingFileIsIoError) {
  const Result<std::string> back =
      read_file("/nonexistent/crowdrank/artifact.crart");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error.code, ErrorCode::IoError);
}

TEST(ArtifactFile, EnsureDirectoryCreatesNestedPaths) {
  const fs::path dir = fs::temp_directory_path() /
                       "crowdrank_artifact_test_nested" / "a" / "b";
  fs::remove_all(dir.parent_path().parent_path());
  EXPECT_FALSE(ensure_directory(dir.string()).has_value());
  EXPECT_TRUE(fs::is_directory(dir));
  fs::remove_all(dir.parent_path().parent_path());
}

}  // namespace
}  // namespace crowdrank::service::artifact
