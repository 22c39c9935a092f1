// Row-sliced sparse matrix (SELL-8) and a coordinate-format builder.
//
// The placer assembles the (symmetric positive definite) connectivity
// matrix C of the quadratic objective once per placement transformation
// and multiplies by it in every CG iteration. The storage is laid out for
// that multiply (DESIGN.md §6):
//
//   * rows are ordered by descending length (ties by row index) and cut
//     into slices of slice_rows = 8 consecutive rows;
//   * a slice stores its rows interleaved, entry j of slice row q at
//     offset slice_ptr[s] + j·8 + q, padded to the slice's longest row;
//   * column indices are uint32.
//
// One vector lane then walks one row, and the multiply reduces every row
// in exactly the fixed 4-lane shape of the dot_gather kernel (util/
// simd.hpp), so its result is bitwise independent of the layout, the ISA
// and the thread count. Padded slots are masked out by row length, never
// multiplied in, so their contents do not matter.
//
// Within a row the stored columns are ascending, as in CSR; slot(),
// at() and row() address entries by (row, column) as before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace gpf {

class sliced_matrix {
public:
    /// Rows per slice (the row-interleave width of the layout).
    static constexpr std::size_t slice_rows = 8;

    sliced_matrix() = default;

    /// Construct from CSR arrays: row_ptr has n+1 monotone entries ending
    /// at col_idx.size(), columns ascend within each row, and values
    /// matches col_idx in length.
    sliced_matrix(const std::vector<std::size_t>& row_ptr,
                  const std::vector<std::size_t>& col_idx,
                  const std::vector<double>& values);

    std::size_t rows() const { return pattern_ ? pattern_->rows : 0; }
    /// Structural nonzeros (the CSR count; padding excluded).
    std::size_t nonzeros() const { return pattern_ ? pattern_->nonzeros : 0; }
    /// Stored slots, padding included (the memory the values occupy).
    std::size_t stored() const { return values_.size(); }

    /// y = A x + shift ⊙ x in one pass (shift == nullptr: y = A x).
    /// x.size() (and shift->size()) must equal rows(). Every y[i] is the
    /// dot_gather reduction of row i followed by + shift[i]·x[i], so the
    /// result is bitwise identical for any thread count and GPF_SIMD.
    void multiply(const std::vector<double>& x, std::vector<double>& y,
                  const std::vector<double>* shift = nullptr) const;

    /// Main diagonal (missing entries are 0).
    std::vector<double> diagonal() const;

    /// Value at (i, j), 0 if not stored. O(log row_nnz).
    double at(std::size_t i, std::size_t j) const;

    /// Sentinel returned by slot() for entries outside the pattern.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Index into values() of entry (i, j), npos if not stored. Lets
    /// symbolic-then-numeric assemblers refill a fixed pattern in place.
    std::size_t slot(std::size_t i, std::size_t j) const;

    /// Slot of row i's k-th stored entry (entries ascend by column), for
    /// callers that already know an entry's rank in its CSR row.
    std::size_t entry_slot(std::size_t i, std::size_t k) const;

    /// True when the stored pattern and values are symmetric within tol.
    bool is_symmetric(double tol = 1e-12) const;

    /// The stored entries of one row, ascending by column.
    struct row_view {
        const double* vals;
        const std::uint32_t* cols;
        std::size_t size;
        double value(std::size_t k) const { return vals[k * slice_rows]; }
        std::size_t column(std::size_t k) const { return cols[k * slice_rows]; }
    };
    row_view row(std::size_t i) const;

    /// Stored values, slot-addressed (padding included). Copies of a
    /// matrix share the immutable pattern and own their values.
    const std::vector<double>& values() const { return values_; }
    /// Mutable values for in-place numeric refill of a fixed pattern.
    std::vector<double>& values() { return values_; }

private:
    struct pattern {
        std::size_t rows = 0;
        std::size_t nonzeros = 0;
        std::vector<std::size_t> slice_ptr;  ///< slices + 1 slot offsets
        std::vector<std::uint32_t> row_len;  ///< per slice row, descending
        std::vector<std::uint32_t> row_of;   ///< slice row → matrix row
        std::vector<std::uint32_t> pos_of;   ///< matrix row → slice row
        std::vector<std::uint32_t> cols;     ///< slot → column
    };

    std::shared_ptr<const pattern> pattern_;
    std::vector<double> values_;
};

/// Accumulating coordinate-format builder. add() may be called repeatedly
/// for the same (i, j); contributions sum during build().
class coo_builder {
public:
    explicit coo_builder(std::size_t n) : n_(n) {}

    std::size_t size() const { return n_; }

    void add(std::size_t i, std::size_t j, double value);
    void add_symmetric_pair(std::size_t i, std::size_t j, double value);
    void add_diagonal(std::size_t i, double value);

    /// Number of raw (pre-merge) entries added so far.
    std::size_t entry_count() const { return entries_.size(); }

    /// Merge duplicates and produce the matrix. The builder can be
    /// reused afterwards (entries are consumed).
    sliced_matrix build();

private:
    struct entry {
        std::size_t row;
        std::size_t col;
        double value;
    };

    std::size_t n_;
    std::vector<entry> entries_;
};

} // namespace gpf
