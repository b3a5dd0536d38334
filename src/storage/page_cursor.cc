#include "storage/page_cursor.h"

#include <algorithm>
#include <cstring>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_stats.h"

namespace factorml::storage {

namespace {

// Data page layout (shared with Table's write side): uint64 row count,
// then packed fixed-width rows.
uint64_t PageRowCount(const char* page) {
  uint64_t n;
  std::memcpy(&n, page, sizeof(n));
  return n;
}

}  // namespace

// ------------------------------------------------------------- Prefetcher

Prefetcher::Prefetcher(int max_inflight)
    : max_inflight_(max_inflight < 1 ? 1 : max_inflight) {}

Prefetcher::~Prefetcher() { Drain(); }

void Prefetcher::PrefetchPages(BufferPool* pool, PagedFile* file,
                               uint64_t first_page, uint64_t end_page) {
  if (first_page >= end_page) return;
  static obs::Counter* requests =
      obs::Registry::Instance().GetCounter("storage.prefetch_requests");
  static obs::Counter* dropped_ctr =
      obs::Registry::Instance().GetCounter("storage.prefetch_dropped");
  requests->Add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_ >= max_inflight_) {
      ++dropped_;
      dropped_ctr->Add();
      return;
    }
    ++inflight_;
  }
  obs::TraceInstant(obs::kCatStorage, "prefetch_issue", "page",
                    static_cast<int64_t>(first_page));
  exec::ThreadPool::Instance().SubmitIo([this, pool, file, first_page,
                                         end_page] {
    obs::TraceSpan land_span(obs::kCatStorage, "prefetch_land");
    uint64_t fetched = 0;
    for (uint64_t page = first_page; page < end_page; ++page) {
      if (pool->Contains(file, page)) continue;
      auto buf = std::make_unique<char[]>(kPageSize);
      // ReadPage charges the crew thread's thread-local counters, which
      // are never merged; the folded accounting below is authoritative.
      if (!file->ReadPage(page, buf.get()).ok()) break;
      ++fetched;
      pool->InsertPrefetched(file, page, std::move(buf));
    }
    land_span.Arg("pages", static_cast<int64_t>(fetched));
    std::lock_guard<std::mutex> lock(mu_);
    fetched_total_ += fetched;
    fetched_unfolded_ += fetched;
    if (--inflight_ == 0) cv_.notify_all();
  });
}

void Prefetcher::Drain() {
  static obs::Histogram* drain_micros =
      obs::Registry::Instance().GetHistogram("storage.prefetch_drain_micros");
  obs::TraceSpan drain_span(obs::kCatStorage, "prefetch_drain");
  const uint64_t t0 = obs::NowMicros();
  uint64_t fold = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return inflight_ == 0; });
    fold = fetched_unfolded_;
    fetched_unfolded_ = 0;
  }
  drain_micros->Record(obs::NowMicros() - t0);
  drain_span.Arg("pages", static_cast<int64_t>(fold));
  GlobalIo().pages_read += fold;
  GlobalIo().prefetch_reads += fold;
}

uint64_t Prefetcher::pages_fetched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fetched_total_;
}

uint64_t Prefetcher::requests_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

// ------------------------------------------------------------- PageCursor

Status PageCursor::ReadRows(int64_t start_row, size_t count,
                            RowBatch* out) const {
  if (start_row < 0 ||
      start_row + static_cast<int64_t>(count) > table_->num_rows()) {
    return Status::OutOfRange("row range out of bounds in " +
                              table_->path());
  }
  const Schema& schema = table_->schema();
  const size_t rpp = schema.RowsPerPage();
  const size_t row_bytes = schema.RowBytes();

  out->num_rows = count;
  out->num_keys = schema.num_keys;
  out->start_row = start_row;
  out->keys.resize(count * schema.num_keys);
  if (out->feats.rows() != count || out->feats.cols() != schema.num_feats) {
    out->feats.Resize(count, schema.num_feats);
  }

  size_t filled = 0;
  while (filled < count) {
    const int64_t row = start_row + static_cast<int64_t>(filled);
    const uint64_t page_no = 1 + static_cast<uint64_t>(row) / rpp;
    const size_t offset_in_page = static_cast<size_t>(row) % rpp;
    FML_ASSIGN_OR_RETURN(const char* page,
                         pool_->GetPage(table_->file(), page_no));
    const uint64_t rows_in_page = PageRowCount(page);
    if (offset_in_page >= rows_in_page) {
      return Status::Internal("corrupt page in " + table_->path());
    }
    const size_t take =
        std::min(count - filled,
                 static_cast<size_t>(rows_in_page) - offset_in_page);
    const char* src = page + 8 + offset_in_page * row_bytes;
    for (size_t r = 0; r < take; ++r) {
      std::memcpy(out->keys.data() + (filled + r) * schema.num_keys, src,
                  8 * schema.num_keys);
      std::memcpy(out->feats.Row(filled + r).data(),
                  src + 8 * schema.num_keys, 8 * schema.num_feats);
      src += row_bytes;
    }
    filled += take;
  }
  return Status::OK();
}

Status PageCursor::ReadStrips(int64_t start_row, size_t count,
                              size_t strip_rows, ColumnStrips* out) const {
  if (start_row < 0 ||
      start_row + static_cast<int64_t>(count) > table_->num_rows()) {
    return Status::OutOfRange("row range out of bounds in " +
                              table_->path());
  }
  FML_CHECK_GT(strip_rows, 0u);
  static obs::Histogram* decode_micros =
      obs::Registry::Instance().GetHistogram("storage.decode_strip_micros");
  obs::TraceSpan span(obs::kCatStorage, "decode_strip");
  const uint64_t t0 = obs::NowMicros();

  const Schema& schema = table_->schema();
  const size_t rpp = schema.RowsPerPage();
  const size_t row_bytes = schema.RowBytes();
  const size_t d = schema.num_feats;

  out->Shape(strip_rows, count, d, schema.num_keys, start_row);

  // The page walk below is ReadRows' exactly — same GetPage sequence, so
  // the pool sees an identical demand stream; only the decode destination
  // differs (column scatter instead of row memcpy).
  size_t filled = 0;
  while (filled < count) {
    const int64_t row = start_row + static_cast<int64_t>(filled);
    const uint64_t page_no = 1 + static_cast<uint64_t>(row) / rpp;
    const size_t offset_in_page = static_cast<size_t>(row) % rpp;
    FML_ASSIGN_OR_RETURN(const char* page,
                         pool_->GetPage(table_->file(), page_no));
    const uint64_t rows_in_page = PageRowCount(page);
    if (offset_in_page >= rows_in_page) {
      return Status::Internal("corrupt page in " + table_->path());
    }
    const size_t take =
        std::min(count - filled,
                 static_cast<size_t>(rows_in_page) - offset_in_page);
    const char* src = page + 8 + offset_in_page * row_bytes;
    for (size_t r = 0; r < take; ++r) {
      const size_t idx = filled + r;  // batch-local row index
      std::memcpy(out->keys.data() + idx * schema.num_keys, src,
                  8 * schema.num_keys);
      const char* feat_src = src + 8 * schema.num_keys;
      double* strip0 =
          out->data.data() + (idx / strip_rows) * d * strip_rows +
          idx % strip_rows;
      for (size_t c = 0; c < d; ++c) {
        std::memcpy(strip0 + c * strip_rows, feat_src + 8 * c, 8);
      }
      src += row_bytes;
    }
    filled += take;
  }
  decode_micros->Record(obs::NowMicros() - t0);
  span.Arg("rows", static_cast<int64_t>(count));
  return Status::OK();
}

void PageCursor::PrefetchRows(int64_t start_row, int64_t count) const {
  if (prefetcher_ == nullptr) return;
  const int64_t num_rows = table_->num_rows();
  if (start_row < 0) {
    count += start_row;
    start_row = 0;
  }
  count = std::min(count, num_rows - start_row);
  if (count <= 0) return;
  const auto rpp = static_cast<int64_t>(table_->schema().RowsPerPage());
  const auto first_page = static_cast<uint64_t>(1 + start_row / rpp);
  const auto last_page =
      static_cast<uint64_t>(1 + (start_row + count - 1) / rpp);
  prefetcher_->PrefetchPages(pool_, table_->file(), first_page,
                             last_page + 1);
}

}  // namespace factorml::storage
