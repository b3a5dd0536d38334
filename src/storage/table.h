#ifndef FACTORML_STORAGE_TABLE_H_
#define FACTORML_STORAGE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"

namespace factorml::storage {

/// Fixed-width row layout: `num_keys` int64 columns (ids / foreign keys)
/// followed by `num_feats` double feature columns. All relations in the
/// paper's setting (S, R1..Rq, and the materialized join T) fit this shape;
/// the learning target Y, when present, is feature column 0 of S and T by
/// the convention established in core/dataset.h.
struct Schema {
  size_t num_keys = 0;
  size_t num_feats = 0;

  size_t RowBytes() const { return 8 * (num_keys + num_feats); }
  /// Rows that fit one data page after the 8-byte page header.
  size_t RowsPerPage() const { return (kPageSize - 8) / RowBytes(); }

  bool operator==(const Schema& o) const {
    return num_keys == o.num_keys && num_feats == o.num_feats;
  }
};

/// A batch of decoded rows produced by TableScanner. Keys are flattened
/// row-major (`num_keys` per row); features form a dense matrix.
struct RowBatch {
  size_t num_rows = 0;
  size_t num_keys = 0;
  int64_t start_row = 0;           // global row id of row 0 in this batch
  std::vector<int64_t> keys;       // num_rows * num_keys
  la::Matrix feats;                // num_rows x num_feats

  const int64_t* KeysOf(size_t row) const {
    return keys.data() + row * num_keys;
  }
};

/// A batch of decoded rows laid out as cache-blocked column-major strips —
/// the batched-decode target of the kernel plane. The row range is cut
/// into strips of `strip_rows` rows (the last strip may be short); within
/// strip s, feature column c occupies the contiguous run
/// `data[(s * num_cols + c) * strip_rows .. + strip_rows)` (the stride is
/// always the full strip height, so a short last strip just leaves its
/// tail lanes unused). One strip of one column is the unit the batch
/// kernels (la/kernels.h `*_strip`) consume: tall enough to amortize the
/// decode transpose, short enough that a handful of columns stay in L1/L2.
/// Keys stay row-major like RowBatch — the join paths that need them are
/// row-at-a-time anyway.
struct ColumnStrips {
  size_t strip_rows = 0;  // H — strip height (and the column stride)
  size_t num_strips = 0;
  size_t num_rows = 0;    // total decoded rows across all strips
  size_t num_cols = 0;    // feature columns
  size_t num_keys = 0;
  int64_t start_row = 0;  // global row id of strip 0, row 0
  std::vector<int64_t> keys;  // num_rows * num_keys, row-major
  std::vector<double> data;   // num_strips * num_cols * strip_rows

  /// Sets the geometry for `rows` rows of `cols` columns cut into strips
  /// of `height` and sizes `keys` / `data` to match (contents are left to
  /// the caller to fill).
  void Shape(size_t height, size_t rows, size_t cols, size_t key_cols,
             int64_t first_row) {
    strip_rows = height;
    num_strips = (rows + height - 1) / height;
    num_rows = rows;
    num_cols = cols;
    num_keys = key_cols;
    start_row = first_row;
    keys.resize(rows * key_cols);
    data.resize(num_strips * cols * height);
  }

  const double* Col(size_t strip, size_t col) const {
    return data.data() + (strip * num_cols + col) * strip_rows;
  }
  double* MutableCol(size_t strip, size_t col) {
    return data.data() + (strip * num_cols + col) * strip_rows;
  }
  /// Rows actually present in `strip` (strip_rows except a short tail).
  size_t RowsInStrip(size_t strip) const {
    return std::min(strip_rows, num_rows - strip * strip_rows);
  }
  /// Batch-local index of `strip`'s first row (add start_row for global).
  size_t StripStart(size_t strip) const { return strip * strip_rows; }
  const int64_t* KeysOf(size_t row) const {
    return keys.data() + row * num_keys;
  }
};

/// A heap-file relation: header page 0 (magic, schema, row count) followed
/// by data pages of packed fixed-width rows. Tables are write-once: build
/// with Append + Finish, then scan through a BufferPool.
class Table {
 public:
  /// Creates a new table file at `path` (truncating any existing file).
  static Result<Table> Create(const std::string& path, const Schema& schema);

  /// Opens an existing table, reading schema and row count from the header.
  static Result<Table> Open(const std::string& path);

  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const Schema& schema() const { return schema_; }
  const std::string& path() const { return file_->path(); }
  int64_t num_rows() const { return num_rows_; }
  /// Data pages only (excludes the header page) — this is the |S|, |R|, |T|
  /// of the paper's I/O cost formulas.
  uint64_t num_data_pages() const;

  PagedFile* file() const { return file_.get(); }

  /// Appends one row (buffered; pages are written when full).
  Status Append(const int64_t* keys, const double* feats);

  /// Flushes the tail page and persists the header. Must be called once
  /// after the last Append before the table is scanned.
  Status Finish();

  /// Reads `count` rows starting at `start_row` into `out` via the pool.
  /// Convenience shim over the unified I/O cursor plane
  /// (storage::PageCursor, which owns the page walk and decode).
  Status ReadRows(BufferPool* pool, int64_t start_row, size_t count,
                  RowBatch* out) const;

  /// Reads `count` rows starting at `start_row` into column-major strips
  /// of height `strip_rows` via the pool. Same page walk as ReadRows —
  /// identical I/O accounting — different decode target. Convenience shim
  /// over storage::PageCursor::ReadStrips.
  Status ReadStrips(BufferPool* pool, int64_t start_row, size_t count,
                    size_t strip_rows, ColumnStrips* out) const;

 private:
  Table(std::unique_ptr<PagedFile> file, Schema schema, int64_t num_rows,
        bool writable);

  Status FlushTailPage();

  std::unique_ptr<PagedFile> file_;
  Schema schema_;
  int64_t num_rows_;
  bool writable_;
  bool finished_ = false;
  std::vector<char> tail_page_;
  size_t tail_rows_ = 0;
};

class Prefetcher;  // storage/page_cursor.h — the async half of the I/O plane
class PageCursor;  // storage/page_cursor.h — the demand half

/// Sequential batched reader over a table's rows — a thin batching /
/// row-decoding shim over the unified I/O cursor plane (PageCursor): every
/// page touch is delegated there, and when a Prefetcher is attached the
/// scanner double-buffers, asynchronously landing the pages of the next
/// `depth_batches` batches while the caller computes on the current one.
class TableScanner {
 public:
  /// Batches of up to `batch_rows` rows; the last batch may be short.
  TableScanner(const Table* table, BufferPool* pool, size_t batch_rows);

  /// Attaches the async prefetch plane: Next() keeps the pages of the
  /// following `depth_batches` batches in flight ahead of the demand
  /// reads. Residency-only — decoded rows, batch boundaries and demand
  /// read order are unchanged by any prefetch schedule.
  void EnablePrefetch(Prefetcher* prefetcher, int64_t depth_batches);

  /// Asynchronously lands the head of rows [begin, end) — at most
  /// `depth_batches` batches' worth — in the pool. Used by the morsel
  /// drivers to overlap the next scheduled chunk's reads with the current
  /// chunk's compute. No-op without EnablePrefetch.
  void PrefetchRowRange(int64_t begin, int64_t end);

  /// Fills `out` with the next batch. Returns false at end-of-table or on
  /// error (check status()).
  bool Next(RowBatch* out);

  /// Strip-decoding twin of Next(): same batch boundaries, same demand
  /// page walk, same prefetch schedule — but the batch lands as
  /// column-major strips of height `strip_rows` instead of row-major
  /// rows. The batched (--kernels=simd) dense drivers call this; Next()
  /// remains the row-at-a-time path.
  bool NextStrips(size_t strip_rows, ColumnStrips* out);

  /// Restricts the scan to rows [begin, end) — the morsel of one parallel
  /// worker. Batch boundaries fall at begin + i * batch_rows, so a
  /// full-range scanner chunks exactly like an unrestricted one. Also
  /// repositions to `begin`.
  void SetRowRange(int64_t begin, int64_t end);

  /// Restarts the scan from the first row of the range (a new pass).
  void Reset();

  const Status& status() const { return status_; }

 private:
  /// Shared head of Next()/NextStrips(): status check, batch sizing, and
  /// the double-buffer prefetch window. Returns false at end-of-range.
  bool PrepareBatch(PageCursor* cursor, size_t* count);

  const Table* table_;
  BufferPool* pool_;
  size_t batch_rows_;
  int64_t begin_row_ = 0;
  int64_t end_row_ = -1;  // -1 = num_rows()
  int64_t next_row_ = 0;
  Status status_;
  Prefetcher* prefetcher_ = nullptr;
  int64_t prefetch_batches_ = 0;
  int64_t prefetch_water_ = 0;  // rows at/after this mark not yet prefetched
};

}  // namespace factorml::storage

#endif  // FACTORML_STORAGE_TABLE_H_
