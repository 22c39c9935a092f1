#include "linalg/sliced_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

static_assert(sliced_matrix::slice_rows == simd_slice_rows,
              "the matrix layout is the one the spmv_sliced kernels walk");

sliced_matrix::sliced_matrix(const std::vector<std::size_t>& row_ptr,
                             const std::vector<std::size_t>& col_idx,
                             const std::vector<double>& values) {
    GPF_CHECK(!row_ptr.empty());
    GPF_CHECK(row_ptr.front() == 0);
    GPF_CHECK(row_ptr.back() == col_idx.size());
    GPF_CHECK(col_idx.size() == values.size());
    const std::size_t n = row_ptr.size() - 1;
    GPF_CHECK_MSG(n < (std::size_t{1} << 31),
                  "sliced rows and columns are 32-bit with signed-compare masks");

    auto p = std::make_shared<pattern>();
    p->rows = n;
    p->nonzeros = col_idx.size();

    // Longest rows first (ties in row order), so each slice's rows are of
    // near-equal length and padding stays small; the last slice is padded
    // with empty rows. A counting sort by length: stable, and linear.
    const std::size_t slices = (n + slice_rows - 1) / slice_rows;
    const std::size_t padded_rows = slices * slice_rows;
    const auto length = [&](std::size_t i) { return row_ptr[i + 1] - row_ptr[i]; };
    std::size_t longest = 0;
    for (std::size_t i = 0; i < n; ++i) longest = std::max(longest, length(i));
    std::vector<std::size_t> first_of_length(longest + 2, 0); // descending order
    for (std::size_t i = 0; i < n; ++i) ++first_of_length[longest - length(i) + 1];
    for (std::size_t l = 1; l < first_of_length.size(); ++l) {
        first_of_length[l] += first_of_length[l - 1];
    }
    p->row_of.assign(padded_rows, 0);
    for (std::size_t i = 0; i < n; ++i) {
        p->row_of[first_of_length[longest - length(i)]++] = static_cast<std::uint32_t>(i);
    }
    p->row_len.assign(padded_rows, 0);
    p->pos_of.resize(n);
    for (std::size_t q = 0; q < n; ++q) {
        p->row_len[q] = static_cast<std::uint32_t>(length(p->row_of[q]));
        p->pos_of[p->row_of[q]] = static_cast<std::uint32_t>(q);
    }

    p->slice_ptr.resize(slices + 1, 0);
    for (std::size_t s = 0; s < slices; ++s) {
        p->slice_ptr[s + 1] = p->slice_ptr[s] + slice_rows * p->row_len[s * slice_rows];
    }

    // Padded slots carry column 0 and value 0; every kernel masks them out
    // by row length, so neither is ever read into a sum.
    const std::size_t slots = p->slice_ptr.back();
    p->cols.assign(slots, 0);
    values_.assign(slots, 0.0);
    for (std::size_t q = 0; q < n; ++q) {
        const std::size_t i = p->row_of[q];
        std::size_t out = p->slice_ptr[q / slice_rows] + q % slice_rows;
        for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k, out += slice_rows) {
            GPF_CHECK(col_idx[k] < n);
            GPF_CHECK_MSG(k == row_ptr[i] || col_idx[k] > col_idx[k - 1],
                          "columns must ascend strictly within a row");
            p->cols[out] = static_cast<std::uint32_t>(col_idx[k]);
            values_[out] = values[k];
        }
    }
    pattern_ = std::move(p);
}

void sliced_matrix::multiply(const std::vector<double>& x, std::vector<double>& y,
                             const std::vector<double>* shift) const {
    const std::size_t n = rows();
    GPF_CHECK(x.size() == n);
    GPF_CHECK(shift == nullptr || shift->size() == n);
    y.resize(n);
    if (n == 0) return;
    const sliced_view view{values_.data(),           pattern_->cols.data(),
                           pattern_->slice_ptr.data(), pattern_->row_len.data(),
                           pattern_->row_of.data(),    n};
    const simd_kernels& kern = simd();
    const double* sp = shift == nullptr ? nullptr : shift->data();
    // Slice-parallel: each y[i] is produced by exactly one row reduction,
    // so the result is bitwise identical for any thread count.
    parallel_for_chunks(
        pattern_->slice_ptr.size() - 1,
        [&](std::size_t begin, std::size_t end) {
            kern.spmv_sliced(view, x.data(), sp, y.data(), begin, end);
        },
        /*grain=*/32);
}

std::size_t sliced_matrix::entry_slot(std::size_t i, std::size_t k) const {
    GPF_CHECK(i < rows());
    const std::size_t q = pattern_->pos_of[i];
    GPF_CHECK(k < pattern_->row_len[q]);
    return pattern_->slice_ptr[q / slice_rows] + q % slice_rows + k * slice_rows;
}

sliced_matrix::row_view sliced_matrix::row(std::size_t i) const {
    GPF_CHECK(i < rows());
    const std::size_t q = pattern_->pos_of[i];
    const std::size_t base = pattern_->slice_ptr[q / slice_rows] + q % slice_rows;
    return {values_.data() + base, pattern_->cols.data() + base, pattern_->row_len[q]};
}

std::vector<double> sliced_matrix::diagonal() const {
    const std::size_t n = rows();
    std::vector<double> d(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) d[i] = at(i, i);
    return d;
}

double sliced_matrix::at(std::size_t i, std::size_t j) const {
    const std::size_t k = slot(i, j);
    return k == npos ? 0.0 : values_[k];
}

std::size_t sliced_matrix::slot(std::size_t i, std::size_t j) const {
    GPF_CHECK(i < rows() && j < rows());
    const row_view r = row(i);
    // Binary search over the row's ascending, slice_rows-strided columns.
    std::size_t lo = 0;
    std::size_t hi = r.size;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (r.column(mid) < j) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if (lo == r.size || r.column(lo) != j) return npos;
    return entry_slot(i, lo);
}

bool sliced_matrix::is_symmetric(double tol) const {
    const std::size_t n = rows();
    for (std::size_t i = 0; i < n; ++i) {
        const row_view r = row(i);
        for (std::size_t k = 0; k < r.size; ++k) {
            const std::size_t j = r.column(k);
            if (j < i) continue; // each off-diagonal pair checked once
            if (std::abs(r.value(k) - at(j, i)) > tol) return false;
        }
    }
    return true;
}

void coo_builder::add(std::size_t i, std::size_t j, double value) {
    GPF_CHECK(i < n_ && j < n_);
    entries_.push_back({i, j, value});
}

void coo_builder::add_symmetric_pair(std::size_t i, std::size_t j, double value) {
    add(i, j, value);
    add(j, i, value);
}

void coo_builder::add_diagonal(std::size_t i, double value) { add(i, i, value); }

sliced_matrix coo_builder::build() {
    std::sort(entries_.begin(), entries_.end(), [](const entry& a, const entry& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });

    std::vector<std::size_t> row_ptr(n_ + 1, 0);
    std::vector<std::size_t> col_idx;
    std::vector<double> values;
    col_idx.reserve(entries_.size());
    values.reserve(entries_.size());

    std::size_t k = 0;
    for (std::size_t i = 0; i < n_; ++i) {
        while (k < entries_.size() && entries_[k].row == i) {
            const std::size_t col = entries_[k].col;
            double acc = 0.0;
            while (k < entries_.size() && entries_[k].row == i && entries_[k].col == col) {
                acc += entries_[k].value;
                ++k;
            }
            col_idx.push_back(col);
            values.push_back(acc);
        }
        row_ptr[i + 1] = values.size();
    }
    entries_.clear();
    return sliced_matrix(row_ptr, col_idx, values);
}

} // namespace gpf
