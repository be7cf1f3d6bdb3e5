#include "service/artifact.hpp"

#include <bit>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace crowdrank::service::artifact {

namespace {

constexpr std::size_t kHeaderSize = 24;  // magic + 3 * u32 + u64
constexpr std::size_t kChecksumSize = 8;
constexpr std::size_t kMinFrameSize = kHeaderSize + kChecksumSize;
/// Separates frame checksums from every other StableHash key space.
constexpr std::uint64_t kChecksumSeed = 0x43524146;  // "CRAF"
/// Graph decoders allocate per-vertex bookkeeping from a single fixed-size
/// header field, so the vertex count is capped before any construction: a
/// 32-byte forged frame with a valid checksum must not be able to demand a
/// multi-gigabyte allocation. 2^26 vertices is far beyond any ranking
/// universe the serving story targets.
constexpr std::uint64_t kMaxDecodedVertices = std::uint64_t{1} << 26;

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(value >> shift) & 0xf]);
  }
  return out;
}

// -- little-endian primitives -------------------------------------------

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

void put_string(std::string& out, std::string_view value) {
  put_u64(out, value.size());
  out.append(value);
}

/// Bounds-checked payload cursor. Any overrun latches `failed` and makes
/// every later read return zero, so decoders can parse straight through
/// and check once at the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool failed() const { return failed_; }
  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// True when `count` elements of `elem_size` bytes can still be read —
  /// the guard that keeps a forged length field from driving a huge
  /// reserve() before the truncation is noticed.
  bool can_take(std::uint64_t count, std::size_t elem_size) const {
    return !failed_ && count <= remaining() / elem_size;
  }

  std::uint8_t take_u8() {
    if (pos_ + 1 > data_.size()) {
      failed_ = true;
      return 0;
    }
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t take_u32() {
    std::uint32_t value = 0;
    if (pos_ + 4 > data_.size()) {
      failed_ = true;
      pos_ = data_.size();
      return 0;
    }
    for (int i = 3; i >= 0; --i) {
      value = (value << 8) |
              static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 4;
    return value;
  }

  std::uint64_t take_u64() {
    std::uint64_t value = 0;
    if (pos_ + 8 > data_.size()) {
      failed_ = true;
      pos_ = data_.size();
      return 0;
    }
    for (int i = 7; i >= 0; --i) {
      value = (value << 8) |
              static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 8;
    return value;
  }

  double take_f64() { return std::bit_cast<double>(take_u64()); }

  std::string take_string() {
    const std::uint64_t size = take_u64();
    if (!can_take(size, 1)) {
      failed_ = true;
      return {};
    }
    std::string out(data_.substr(pos_, size));
    pos_ += size;
    return out;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

std::uint64_t frame_checksum(std::string_view frame_bytes) {
  // Over everything after the magic and before the checksum itself, so
  // version/kind/schema tampering is caught as corruption too.
  StableHash hash(kChecksumSeed);
  hash.add_bytes(frame_bytes.data() + 4, frame_bytes.size() - 4 - kChecksumSize);
  return hash.digest64();
}

struct FrameView {
  Kind kind = Kind::VoteBatch;
  std::uint32_t schema = 0;
  std::string_view payload;
};

Result<FrameView> read_frame(std::string_view bytes) {
  Result<FrameView> out;
  if (bytes.size() < kMinFrameSize) {
    out.error = {ErrorCode::TooSmall,
                 "frame is " + std::to_string(bytes.size()) +
                     " bytes; minimum is " + std::to_string(kMinFrameSize)};
    return out;
  }
  if (bytes.substr(0, 4) != std::string_view("CRAF", 4)) {
    out.error = {ErrorCode::BadMagic, "magic bytes are not \"CRAF\""};
    return out;
  }
  Reader header(bytes.substr(4, kHeaderSize - 4));
  const std::uint32_t format_version = header.take_u32();
  const std::uint32_t kind_value = header.take_u32();
  const std::uint32_t schema = header.take_u32();
  const std::uint64_t payload_size = header.take_u64();
  if (format_version != kFormatVersion) {
    out.error = {ErrorCode::BadFormatVersion,
                 "format version " + std::to_string(format_version) +
                     "; this reader understands " +
                     std::to_string(kFormatVersion)};
    return out;
  }
  if (payload_size != bytes.size() - kMinFrameSize) {
    out.error = {ErrorCode::Truncated,
                 "declared payload of " + std::to_string(payload_size) +
                     " bytes, frame carries " +
                     std::to_string(bytes.size() - kMinFrameSize)};
    return out;
  }
  Reader trailer(bytes.substr(bytes.size() - kChecksumSize));
  const std::uint64_t stored = trailer.take_u64();
  const std::uint64_t computed = frame_checksum(bytes);
  if (stored != computed) {
    out.error = {ErrorCode::ChecksumMismatch,
                 "stored " + hex64(stored) + " != computed " +
                     hex64(computed)};
    return out;
  }
  if (kind_value < static_cast<std::uint32_t>(Kind::VoteBatch) ||
      kind_value > static_cast<std::uint32_t>(Kind::RankedResult)) {
    out.error = {ErrorCode::WrongKind,
                 "unknown artifact kind " + std::to_string(kind_value)};
    return out;
  }
  out.value = FrameView{static_cast<Kind>(kind_value), schema,
                        bytes.substr(kHeaderSize, payload_size)};
  return out;
}

/// Frame + kind + schema gate shared by every decoder; on success the
/// payload view is handed to the kind-specific parser.
template <typename T>
bool open_payload(std::string_view bytes, Kind kind, std::uint32_t schema,
                  Result<T>& out, std::string_view* payload) {
  Result<FrameView> frame = read_frame(bytes);
  if (!frame.ok()) {
    out.error = std::move(frame.error);
    return false;
  }
  if (frame.value->kind != kind) {
    out.error = {ErrorCode::WrongKind,
                 std::string("expected ") + kind_name(kind) + ", frame is " +
                     kind_name(frame.value->kind)};
    return false;
  }
  if (frame.value->schema != schema) {
    out.error = {ErrorCode::BadSchemaVersion,
                 std::string(kind_name(kind)) + " schema " +
                     std::to_string(frame.value->schema) +
                     "; this reader understands " + std::to_string(schema)};
    return false;
  }
  *payload = frame.value->payload;
  return true;
}

ArtifactError bad_payload(std::string detail) {
  return {ErrorCode::BadPayload, std::move(detail)};
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::VoteBatch:
      return "vote_batch";
    case Kind::TaskGraph:
      return "task_graph";
    case Kind::PreferenceGraph:
      return "preference_graph";
    case Kind::SparseMatrix:
      return "sparse_matrix";
    case Kind::DenseMatrix:
      return "dense_matrix";
    case Kind::RankedResult:
      return "ranked_result";
  }
  return "unknown";
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::None:
      return "none";
    case ErrorCode::TooSmall:
      return "too_small";
    case ErrorCode::BadMagic:
      return "bad_magic";
    case ErrorCode::BadFormatVersion:
      return "bad_format_version";
    case ErrorCode::Truncated:
      return "truncated";
    case ErrorCode::ChecksumMismatch:
      return "checksum_mismatch";
    case ErrorCode::WrongKind:
      return "wrong_kind";
    case ErrorCode::BadSchemaVersion:
      return "bad_schema_version";
    case ErrorCode::BadPayload:
      return "bad_payload";
    case ErrorCode::IoError:
      return "io_error";
  }
  return "unknown";
}

std::string ArtifactError::to_string() const {
  std::string out = error_code_name(code);
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

namespace detail {

std::string frame(Kind kind, std::uint32_t schema, std::string_view payload) {
  std::string out;
  out.reserve(kMinFrameSize + payload.size());
  out.append("CRAF");
  put_u32(out, kFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(kind));
  put_u32(out, schema);
  put_u64(out, payload.size());
  out.append(payload);
  // Reserve the checksum slot so frame_checksum sees the final extents.
  put_u64(out, 0);
  const std::uint64_t checksum = frame_checksum(out);
  out.resize(out.size() - kChecksumSize);
  put_u64(out, checksum);
  return out;
}

}  // namespace detail

// -- VoteBatch -----------------------------------------------------------

std::string encode(const VoteBatch& votes) {
  std::string payload;
  payload.reserve(8 + votes.size() * 25);
  put_u64(payload, votes.size());
  for (const Vote& vote : votes) {
    put_u64(payload, vote.worker);
    put_u64(payload, vote.i);
    put_u64(payload, vote.j);
    payload.push_back(vote.prefers_i ? '\1' : '\0');
  }
  return detail::frame(Kind::VoteBatch, kVoteBatchSchema, payload);
}

Result<VoteBatch> decode_votes(std::string_view bytes) {
  Result<VoteBatch> out;
  std::string_view payload;
  if (!open_payload(bytes, Kind::VoteBatch, kVoteBatchSchema, out, &payload)) {
    return out;
  }
  Reader reader(payload);
  const std::uint64_t count = reader.take_u64();
  if (!reader.can_take(count, 25)) {
    out.error = bad_payload("vote count overruns the payload");
    return out;
  }
  VoteBatch votes;
  votes.reserve(count);
  for (std::uint64_t v = 0; v < count; ++v) {
    Vote vote;
    vote.worker = reader.take_u64();
    vote.i = reader.take_u64();
    vote.j = reader.take_u64();
    const std::uint8_t direction = reader.take_u8();
    if (direction > 1) {
      out.error = bad_payload("vote direction byte must be 0 or 1");
      return out;
    }
    vote.prefers_i = direction == 1;
    votes.push_back(vote);
  }
  if (reader.failed() || !reader.exhausted()) {
    out.error = bad_payload("vote payload size disagrees with its count");
    return out;
  }
  out.value = std::move(votes);
  return out;
}

// -- TaskGraph -----------------------------------------------------------

std::string encode(const TaskGraph& graph) {
  std::string payload;
  payload.reserve(16 + graph.edge_count() * 16);
  put_u64(payload, graph.vertex_count());
  put_u64(payload, graph.edge_count());
  for (const Edge& edge : graph.edges()) {
    put_u64(payload, edge.first);
    put_u64(payload, edge.second);
  }
  return detail::frame(Kind::TaskGraph, kTaskGraphSchema, payload);
}

Result<TaskGraph> decode_task_graph(std::string_view bytes) {
  Result<TaskGraph> out;
  std::string_view payload;
  if (!open_payload(bytes, Kind::TaskGraph, kTaskGraphSchema, out, &payload)) {
    return out;
  }
  Reader reader(payload);
  const std::uint64_t n = reader.take_u64();
  const std::uint64_t edge_count = reader.take_u64();
  if (reader.failed() || n < 2) {
    out.error = bad_payload("task graph needs at least two vertices");
    return out;
  }
  if (n > kMaxDecodedVertices) {
    out.error = bad_payload("vertex count exceeds the decoder's limit");
    return out;
  }
  if (!reader.can_take(edge_count, 16)) {
    out.error = bad_payload("edge count overruns the payload");
    return out;
  }
  std::optional<TaskGraph> graph;
  try {
    graph.emplace(n);
  } catch (const std::exception& e) {
    out.error = bad_payload(e.what());
    return out;
  }
  for (std::uint64_t e = 0; e < edge_count; ++e) {
    const std::uint64_t a = reader.take_u64();
    const std::uint64_t b = reader.take_u64();
    if (!(a < b && b < n)) {
      out.error = bad_payload("edge is not canonical (first < second < n)");
      return out;
    }
    if (!graph->add_edge(a, b)) {
      out.error = bad_payload("duplicate edge");
      return out;
    }
  }
  if (reader.failed() || !reader.exhausted()) {
    out.error = bad_payload("task graph payload size disagrees");
    return out;
  }
  out.value = std::move(graph);
  return out;
}

// -- PreferenceGraph (CSR over the positive-weight edges) ---------------

std::string encode(const PreferenceGraph& graph) {
  // Three walks over the rows write the CSR sections in order: row_ptr,
  // then every neighbor, then every weight.
  const std::size_t n = graph.vertex_count();
  const std::size_t m = graph.edge_count();
  std::string payload;
  payload.reserve(16 + (n + 1) * 8 + m * 16);
  put_u64(payload, n);
  put_u64(payload, m);
  std::size_t offset = 0;
  put_u64(payload, offset);
  for (VertexId v = 0; v < n; ++v) {
    offset += graph.out_degree(v);
    put_u64(payload, offset);
  }
  for (VertexId v = 0; v < n; ++v) {
    for (const OutEdge& e : graph.out_edges(v)) {
      put_u64(payload, e.to);
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    for (const OutEdge& e : graph.out_edges(v)) {
      put_f64(payload, e.weight);
    }
  }
  return detail::frame(Kind::PreferenceGraph, kPreferenceGraphSchema, payload);
}

Result<PreferenceGraph> decode_preference_graph(std::string_view bytes) {
  Result<PreferenceGraph> out;
  std::string_view payload;
  if (!open_payload(bytes, Kind::PreferenceGraph, kPreferenceGraphSchema, out,
                    &payload)) {
    return out;
  }
  Reader reader(payload);
  const std::uint64_t n = reader.take_u64();
  const std::uint64_t edge_count = reader.take_u64();
  if (reader.failed() || n < 2) {
    out.error = bad_payload("preference graph needs at least two vertices");
    return out;
  }
  if (n > kMaxDecodedVertices) {
    out.error = bad_payload("vertex count exceeds the decoder's limit");
    return out;
  }
  // row_ptr carries n + 1 u64 offsets. Bound n itself instead of testing
  // can_take(n + 1, 8): a forged n == UINT64_MAX wraps n + 1 around to 0,
  // which would pass that check, size row_ptr empty, and send the r <= n
  // fill loop below out of bounds forever. `n < remaining / 8` is exactly
  // `n + 1 <= remaining / 8` with no overflow.
  if (n >= reader.remaining() / 8 || edge_count > (payload.size() / 16)) {
    out.error = bad_payload("CSR extents overrun the payload");
    return out;
  }
  std::vector<std::uint64_t> row_ptr(n + 1);
  for (std::uint64_t r = 0; r <= n; ++r) {
    row_ptr[r] = reader.take_u64();
  }
  if (reader.failed() || row_ptr.front() != 0 || row_ptr.back() != edge_count) {
    out.error = bad_payload("row_ptr does not span [0, edge_count]");
    return out;
  }
  // Full monotonicity before any row_ptr value indexes the edge arrays: a
  // locally-descending row_ptr would otherwise send an earlier row's loop
  // past edge_count.
  for (std::uint64_t r = 0; r < n; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      out.error = bad_payload("row_ptr is not monotone");
      return out;
    }
  }
  if (!reader.can_take(edge_count, 16)) {
    out.error = bad_payload("CSR extents overrun the payload");
    return out;
  }
  std::vector<std::uint64_t> neighbors(edge_count);
  for (std::uint64_t e = 0; e < edge_count; ++e) {
    neighbors[e] = reader.take_u64();
  }
  // O(n + m) storage, and n is bounded by the payload length above.
  PreferenceGraph graph(n);
  for (std::uint64_t row = 0; row < n; ++row) {
    for (std::uint64_t e = row_ptr[row]; e < row_ptr[row + 1]; ++e) {
      const std::uint64_t to = neighbors[e];
      const double weight = reader.take_f64();
      if (to >= n || to == row) {
        out.error = bad_payload("neighbor out of range or self-edge");
        return out;
      }
      if (e > row_ptr[row] && neighbors[e - 1] >= to) {
        out.error = bad_payload("neighbors not strictly ascending in row");
        return out;
      }
      if (!(weight > 0.0 && weight <= 1.0)) {
        out.error = bad_payload("stored weight outside (0, 1]");
        return out;
      }
      graph.set_weight(row, to, weight);
    }
  }
  if (reader.failed() || !reader.exhausted()) {
    out.error = bad_payload("preference graph payload size disagrees");
    return out;
  }
  out.value = std::move(graph);
  return out;
}

// -- SparseMatrix (CSR) --------------------------------------------------

std::string encode(const SparseMatrix& matrix) {
  std::string payload;
  payload.reserve(24 + matrix.row_ptr().size() * 8 + matrix.nnz() * 12);
  put_u64(payload, matrix.rows());
  put_u64(payload, matrix.cols());
  put_u64(payload, matrix.nnz());
  for (const std::size_t offset : matrix.row_ptr()) {
    put_u64(payload, offset);
  }
  for (const std::uint32_t col : matrix.col_indices()) {
    put_u32(payload, col);
  }
  for (const double value : matrix.values()) {
    put_f64(payload, value);
  }
  return detail::frame(Kind::SparseMatrix, kSparseMatrixSchema, payload);
}

Result<SparseMatrix> decode_sparse_matrix(std::string_view bytes) {
  Result<SparseMatrix> out;
  std::string_view payload;
  if (!open_payload(bytes, Kind::SparseMatrix, kSparseMatrixSchema, out,
                    &payload)) {
    return out;
  }
  Reader reader(payload);
  const std::uint64_t rows = reader.take_u64();
  const std::uint64_t cols = reader.take_u64();
  const std::uint64_t nnz = reader.take_u64();
  // Same wraparound hazard as decode_preference_graph: rows == UINT64_MAX
  // would make can_take(rows + 1, 8) vacuously pass and the r <= rows fill
  // loop write past an empty row_ptr, so bound rows itself.
  if (reader.failed() || rows >= reader.remaining() / 8) {
    out.error = bad_payload("CSR extents overrun the payload");
    return out;
  }
  std::vector<std::size_t> row_ptr(rows + 1);
  for (std::uint64_t r = 0; r <= rows; ++r) {
    row_ptr[r] = reader.take_u64();
  }
  if (reader.failed() || row_ptr.front() != 0 || row_ptr.back() != nnz) {
    out.error = bad_payload("row_ptr does not span [0, nnz]");
    return out;
  }
  if (!reader.can_take(nnz, 12)) {
    out.error = bad_payload("CSR extents overrun the payload");
    return out;
  }
  std::vector<std::size_t> col_idx(nnz);
  for (std::uint64_t e = 0; e < nnz; ++e) {
    col_idx[e] = reader.take_u32();
  }
  std::vector<double> values(nnz);
  for (std::uint64_t e = 0; e < nnz; ++e) {
    values[e] = reader.take_f64();
  }
  if (reader.failed() || !reader.exhausted()) {
    out.error = bad_payload("sparse matrix payload size disagrees");
    return out;
  }
  for (std::uint64_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      out.error = bad_payload("row_ptr is not monotone");
      return out;
    }
  }
  for (std::uint64_t row = 0; row < rows; ++row) {
    for (std::uint64_t e = row_ptr[row]; e < row_ptr[row + 1]; ++e) {
      if (col_idx[e] >= cols ||
          (e > row_ptr[row] && col_idx[e - 1] >= col_idx[e])) {
        out.error = bad_payload("columns not strictly ascending in row");
        return out;
      }
      if (values[e] == 0.0) {
        out.error = bad_payload("stored entry is zero");
        return out;
      }
    }
  }
  try {
    out.value = SparseMatrix::from_csr(rows, cols, row_ptr, col_idx, values);
  } catch (const std::exception& e) {
    out.error = bad_payload(e.what());
  }
  return out;
}

// -- dense Matrix --------------------------------------------------------

std::string encode(const Matrix& matrix) {
  std::string payload;
  payload.reserve(16 + matrix.data().size() * 8);
  put_u64(payload, matrix.rows());
  put_u64(payload, matrix.cols());
  for (const double value : matrix.data()) {
    put_f64(payload, value);
  }
  return detail::frame(Kind::DenseMatrix, kDenseMatrixSchema, payload);
}

Result<Matrix> decode_matrix(std::string_view bytes) {
  Result<Matrix> out;
  std::string_view payload;
  if (!open_payload(bytes, Kind::DenseMatrix, kDenseMatrixSchema, out,
                    &payload)) {
    return out;
  }
  Reader reader(payload);
  const std::uint64_t rows = reader.take_u64();
  const std::uint64_t cols = reader.take_u64();
  if (reader.failed() || (rows != 0 && cols > reader.remaining() / 8 / rows)) {
    out.error = bad_payload("matrix extents overrun the payload");
    return out;
  }
  Matrix matrix(rows, cols);
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t c = 0; c < cols; ++c) {
      matrix(r, c) = reader.take_f64();
    }
  }
  if (reader.failed() || !reader.exhausted()) {
    out.error = bad_payload("matrix payload size disagrees");
    return out;
  }
  out.value = std::move(matrix);
  return out;
}

// -- RankedResult --------------------------------------------------------

namespace {

void put_ids(std::string& payload, const std::vector<VertexId>& ids) {
  put_u64(payload, ids.size());
  for (const VertexId id : ids) {
    put_u64(payload, id);
  }
}

bool take_ids(Reader& reader, std::vector<VertexId>* ids) {
  const std::uint64_t count = reader.take_u64();
  if (!reader.can_take(count, 8)) {
    return false;
  }
  ids->resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    (*ids)[i] = reader.take_u64();
  }
  return !reader.failed();
}

}  // namespace

std::string encode(const RankedResult& result) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(result.outcome));
  put_u32(payload, static_cast<std::uint32_t>(result.stage));
  put_string(payload, result.reason);
  put_ids(payload, result.ranking.order);
  put_ids(payload, result.ranking.excluded);
  const HardeningReport& h = result.hardening;
  put_u64(payload, h.input_votes);
  put_u64(payload, h.retained_votes);
  put_u64(payload, h.dropped_out_of_range);
  put_u64(payload, h.dropped_self);
  put_u64(payload, h.dropped_duplicate);
  put_u64(payload, h.dropped_conflicting);
  put_u64(payload, h.dropped_disconnected);
  put_u64(payload, h.requested_objects);
  put_u64(payload, h.component_count);
  put_ids(payload, h.excluded_objects);
  put_f64(payload, result.log_probability);
  return detail::frame(Kind::RankedResult, kRankedResultSchema, payload);
}

Result<RankedResult> decode_result(std::string_view bytes) {
  Result<RankedResult> out;
  std::string_view payload;
  if (!open_payload(bytes, Kind::RankedResult, kRankedResultSchema, out,
                    &payload)) {
    return out;
  }
  Reader reader(payload);
  RankedResult result;
  const std::uint32_t outcome = reader.take_u32();
  const std::uint32_t stage = reader.take_u32();
  if (outcome > static_cast<std::uint32_t>(JobOutcome::Failed) ||
      stage > static_cast<std::uint32_t>(PipelineStage::Done)) {
    out.error = bad_payload("outcome or stage out of range");
    return out;
  }
  result.outcome = static_cast<JobOutcome>(outcome);
  result.stage = static_cast<PipelineStage>(stage);
  result.reason = reader.take_string();
  HardeningReport& h = result.hardening;
  if (!take_ids(reader, &result.ranking.order) ||
      !take_ids(reader, &result.ranking.excluded)) {
    out.error = bad_payload("ranking lists overrun the payload");
    return out;
  }
  h.input_votes = reader.take_u64();
  h.retained_votes = reader.take_u64();
  h.dropped_out_of_range = reader.take_u64();
  h.dropped_self = reader.take_u64();
  h.dropped_duplicate = reader.take_u64();
  h.dropped_conflicting = reader.take_u64();
  h.dropped_disconnected = reader.take_u64();
  h.requested_objects = reader.take_u64();
  h.component_count = reader.take_u64();
  if (!take_ids(reader, &h.excluded_objects)) {
    out.error = bad_payload("excluded-object list overruns the payload");
    return out;
  }
  result.log_probability = reader.take_f64();
  if (reader.failed() || !reader.exhausted()) {
    out.error = bad_payload("ranked result payload size disagrees");
    return out;
  }
  out.value = std::move(result);
  return out;
}

Result<Kind> peek_kind(std::string_view bytes) {
  Result<Kind> out;
  Result<FrameView> frame = read_frame(bytes);
  if (!frame.ok()) {
    out.error = std::move(frame.error);
    return out;
  }
  out.value = frame.value->kind;
  return out;
}

// -- file tier -----------------------------------------------------------

std::optional<ArtifactError> write_file(const std::string& path,
                                        std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return ArtifactError{ErrorCode::IoError, "cannot open " + tmp};
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      return ArtifactError{ErrorCode::IoError, "short write to " + tmp};
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return ArtifactError{ErrorCode::IoError,
                         "cannot rename into place: " + path};
  }
  return std::nullopt;
}

Result<std::string> read_file(const std::string& path) {
  Result<std::string> out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = {ErrorCode::IoError, "cannot open " + path};
    return out;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    out.error = {ErrorCode::IoError, "read failed for " + path};
    return out;
  }
  out.value = std::move(bytes);
  return out;
}

std::optional<ArtifactError> ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec || !std::filesystem::is_directory(path)) {
    return ArtifactError{ErrorCode::IoError,
                         "cannot create directory " + path};
  }
  return std::nullopt;
}

}  // namespace crowdrank::service::artifact
