import io

import numpy as np
import pytest
from datetime import date

from entroport import (TICK_DTYPE, EmptyInputError, DataError, HorizonError,
                       SampledSeries, align_lengths, date_ns, month_start_ns,
                       parse_ticks, resample, slice_horizon)
from entroport.errors import TickParseError
from entroport.series import NS_PER_S, _parse_ticks_fast, write_series_csv


def _csv(rows):
    body = "timestamp_ns,price\n" + "".join(f"{t},{p}\n" for t, p in rows)
    return io.BytesIO(body.encode())


def _ticks(rows):
    return np.array(rows, dtype=TICK_DTYPE)


class TestSampledSeries:
    @pytest.mark.parametrize("fields, message", [
        ({"values": [[1.0, 2.0]]}, "non-empty 1-D"),
        ({"values": []}, "non-empty 1-D"),
        ({"delta": 0}, "delta must be a positive"),
        ({"delta": -1}, "delta must be a positive"),
        ({"kind": "ohlc"}, "unknown series kind 'ohlc'"),
        ({"values": [1.0, np.nan]}, "must be finite")])
    def test_rejects_malformed_series(self, fields, message):
        with pytest.raises(DataError, match=message):
            SampledSeries(**{"values": [1.0, 2.0], "start_time": 0, "delta": 1, **fields})


class TestParseTicks:
    def test_well_formed_rows(self):
        recs = parse_ticks(_csv([(10, 1.5), (20, 1.6), (30, 1.7)]))
        assert recs.dtype == TICK_DTYPE
        assert recs["timestamp"].tolist() == [10, 20, 30]
        assert recs["price"].tolist() == [1.5, 1.6, 1.7]

    def test_empty_file_is_an_error(self):
        with pytest.raises(EmptyInputError):
            parse_ticks(_csv([]))

    def test_out_of_order_rows_are_sorted(self):
        recs = parse_ticks(_csv([(30, 3.0), (10, 1.0), (20, 2.0)]))
        assert recs["timestamp"].tolist() == [10, 20, 30]
        assert recs["price"].tolist() == [1.0, 2.0, 3.0]

    def test_sort_is_stable_for_equal_timestamps(self):
        recs = parse_ticks(_csv([(10, 1.0), (10, 2.0), (10, 3.0)]))
        assert recs["price"].tolist() == [1.0, 2.0, 3.0]

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3"):
            parse_ticks(io.BytesIO(b"timestamp_ns,price\n10,1.0\nnot-a-number,2\n"))

    def test_non_positive_price_is_a_data_error(self):
        with pytest.raises(DataError):
            parse_ticks(_csv([(10, -1.0)]))

    def test_bad_header(self):
        with pytest.raises(TickParseError, match="line 1"):
            parse_ticks(io.BytesIO(b"time,price\n10,1.0\n"))

    def test_timestamp_outside_int64_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3"):
            parse_ticks(_csv([(10, 1.0), (2 ** 63, 2.0)]))
        assert parse_ticks(_csv([(-2 ** 63, 1.0), (2 ** 63 - 1, 2.0)]))[
            "timestamp"].tolist() == [-2 ** 63, 2 ** 63 - 1]

    def test_comment_tail_is_a_parse_error(self):
        with pytest.raises(TickParseError, match="line 2"):
            parse_ticks(b"timestamp_ns,price\n100,2.5#x\n")

    def test_header_only_file_is_empty(self):
        with pytest.raises(EmptyInputError):
            parse_ticks(b"timestamp_ns,price\n")

    def test_nan_price_is_a_data_error_naming_its_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_ticks(b"timestamp_ns,price\n10,1.0\n20,nan\n")

    def test_non_utf8_byte_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3: not valid UTF-8"):
            parse_ticks(b"timestamp_ns,price\n10,1.0\n20,2.\xff5\n30,1.0\n")

    def test_oversized_field_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3"):
            parse_ticks(b"timestamp_ns,price\n10,1.0\n" + b"1" * 200_000 + b",2.0\n")

    def test_plain_files_take_the_vectorised_path(self):
        data = b"timestamp_ns,price\r\n20, +2.5e0\r\n\r\n\t10 ,1E-3\n20,3\n"
        ticks = _parse_ticks_fast(data)
        assert ticks is not None
        assert ticks.tolist() == [(20, 2.5), (10, 0.001), (20, 3.0)]
        assert parse_ticks(data).tolist() == [(10, 0.001), (20, 2.5), (20, 3.0)]


class TestResample:
    def test_previous_tick_rule(self):
        # tick at 0s and 2.5s, 1s grid: grid ends at 2s, all values carry 10
        ticks = _ticks([(0, 10.0), (int(2.5 * NS_PER_S), 11.0)])
        s = resample(ticks, NS_PER_S)
        assert s.values.tolist() == [10.0, 10.0, 10.0]
        assert s.start_time == 0 and s.delta == NS_PER_S and s.kind == "price"

    def test_single_tick(self):
        s = resample(_ticks([(5, 2.0)]), 10)
        assert s.values.tolist() == [2.0]

    def test_delta_larger_than_span(self):
        s = resample(_ticks([(0, 1.0), (5, 2.0)]), 100)
        assert s.values.tolist() == [1.0]

    def test_empty_sequence(self):
        with pytest.raises(EmptyInputError):
            resample(_ticks([]), 10)

    @pytest.mark.parametrize("delta", [0, -10])
    def test_non_positive_delta(self, delta):
        with pytest.raises(DataError, match="delta must be positive"):
            resample(_ticks([(0, 1.0), (20, 2.0)]), delta)

    def test_last_tick_wins_on_shared_timestamp(self):
        ticks = _ticks([(0, 1.0), (0, 9.0), (10, 2.0)])
        assert resample(ticks, 10).values[0] == 9.0

    def test_length_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ts = np.sort(rng.integers(0, 10_000, size=rng.integers(1, 40)))
            ticks = _ticks([(int(t), 1.0 + i) for i, t in enumerate(ts)])
            delta = int(rng.integers(1, 500))
            s = resample(ticks, delta)
            assert len(s) == (ts[-1] - ts[0]) // delta + 1

    def test_idempotent_on_equally_spaced_input(self):
        values = [3.0, 4.0, 5.0, 6.0]
        ticks = _ticks([(100 * i, v) for i, v in enumerate(values)])
        once = resample(ticks, 100)
        again = resample(_ticks(list(zip(once.times().tolist(), once.values.tolist()))),
                         100)
        assert np.array_equal(once.values, again.values)
        assert once.start_time == again.start_time


class TestAlignLengths:
    def _series(self, n, delta=10):
        return SampledSeries(np.arange(1.0, n + 1), start_time=0, delta=delta)

    def test_truncates_to_minimum(self):
        out = align_lengths([self._series(5), self._series(7)])
        assert [len(s) for s in out] == [5, 5]
        assert out[1].values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_equal_lengths_unchanged(self):
        out = align_lengths([self._series(4), self._series(4)])
        assert all(len(s) == 4 for s in out)

    def test_empty_list(self):
        with pytest.raises(EmptyInputError):
            align_lengths([])

    def test_mismatched_delta(self):
        with pytest.raises(DataError):
            align_lengths([self._series(4, delta=10), self._series(4, delta=20)])

    def test_mismatched_start_time(self):
        shifted = SampledSeries(np.arange(1.0, 5.0), start_time=30, delta=10)
        with pytest.raises(DataError, match=r"\[0, 30\]"):
            align_lengths([self._series(4), shifted])


class TestCalendar:
    def test_date_ns_is_midnight_utc(self):
        assert date_ns(date(1970, 1, 1)) == 0
        assert date_ns(date(1969, 12, 31)) == -86_400 * NS_PER_S
        assert date_ns(date(2019, 7, 13)) == 1_562_976_000 * NS_PER_S

    def test_month_start_ns_counts_calendar_months(self):
        assert month_start_ns(date(2018, 11, 1), 0) == date_ns(date(2018, 11, 1))
        assert month_start_ns(date(2018, 11, 1), 2) == date_ns(date(2019, 1, 1))
        assert month_start_ns(date(2018, 1, 1), 12) == 1_546_300_800 * NS_PER_S


class TestSliceHorizon:
    def _year_series(self, delta_s=86400):
        # daily samples across the whole of 2018
        start = date_ns(date(2018, 1, 1))
        n = 365
        return SampledSeries(np.arange(float(n)), start_time=start,
                             delta=delta_s * NS_PER_S)

    def test_full_year_m12_returns_everything(self):
        s = self._year_series()
        out = slice_horizon(s, date(2018, 1, 1), 12)
        assert out == slice(0, len(s))

    def test_m1_keeps_january_only(self):
        s = self._year_series()
        out = slice_horizon(s, date(2018, 1, 1), 1)
        assert len(s.values[out]) == 31

    def test_m13_is_rejected(self):
        with pytest.raises(HorizonError, match=r"months must be in \[1, 12\], got 13"):
            slice_horizon(self._year_series(), date(2018, 1, 1), 13)

    def test_short_series_is_an_error(self):
        s = self._year_series()
        short = s.with_values(s.values[:40])
        with pytest.raises(HorizonError):
            slice_horizon(short, date(2018, 1, 1), 3)

    def test_expanding_prefix_property(self):
        s = self._year_series()
        for m in range(1, 12):
            a = s.values[slice_horizon(s, date(2018, 1, 1), m)]
            b = s.values[slice_horizon(s, date(2018, 1, 1), m + 1)]
            assert len(a) < len(b)
            assert np.array_equal(a, b[:len(a)])

    def test_monthly_mode_is_disjoint(self):
        s = self._year_series()
        feb = s.values[slice_horizon(s, date(2018, 1, 1), 2, mode="monthly")]
        assert len(feb) == 28
        jan = s.values[slice_horizon(s, date(2018, 1, 1), 1, mode="monthly")]
        assert jan[-1] < feb[0]

    def test_expanding_horizon_starts_at_year_start(self):
        # daily samples from 2017-12-01: December belongs to no 2018 horizon
        s = self._year_series()
        early = s.with_values(np.arange(365.0 + 31),
                              start_time=date_ns(date(2017, 12, 1)))
        jan = (date(2018, 1, 1), 1)
        assert slice_horizon(early, *jan) == slice_horizon(early, *jan, mode="monthly")
        assert slice_horizon(early, *jan) == slice(31, 62)

    @pytest.mark.parametrize("mode", ["expanding", "monthly"])
    def test_horizon_with_no_samples_is_an_error(self, mode):
        # a series that starts after January has no sample in M=1
        s = self._year_series()
        march = s.with_values(s.values, start_time=date_ns(date(2018, 3, 1)))
        with pytest.raises(HorizonError, match="no samples fall inside the requested horizon"):
            slice_horizon(march, date(2018, 1, 1), 1, mode=mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown horizon mode 'weekly'"):
            slice_horizon(self._year_series(), date(2018, 1, 1), 1,
                          mode="weekly")


def test_series_cache_roundtrip(tmp_path):
    s = SampledSeries(np.array([1.5, 2.25, 3.125]), start_time=1000,
                      delta=500, kind="volatility")
    path = tmp_path / "cache.csv"
    write_series_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# kind=volatility delta_ns=500", "t_ns,value"]
    rows = [line.split(",") for line in lines[2:]]
    assert [int(t) for t, _ in rows] == s.times().tolist()
    assert np.array_equal([float(v) for _, v in rows], s.values)
