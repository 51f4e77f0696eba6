import numpy as np
import pytest
from datetime import date

from entroport import (TICK_DTYPE, EmptyInputError, DataError, HorizonError, date_ns,
                       month_start_ns, resample, slice_horizon)
from entroport.errors import TickParseError
from entroport.series import NS_PER_S, _parse_ticks_fast, _parse_ticks_lines, iso_utc
from tick_file import parse_tick_file


def _csv(rows):
    return ("timestamp_ns,price\n" + "".join(f"{t},{p}\n" for t, p in rows)).encode()


def _ticks(rows):
    return np.array(rows, dtype=TICK_DTYPE)


class TestParseTicks:
    def test_well_formed_rows(self):
        recs = parse_tick_file(_csv([(10, 1.5), (20, 1.6), (30, 1.7)]))
        assert recs.dtype == TICK_DTYPE
        assert recs["timestamp"].tolist() == [10, 20, 30]
        assert recs["price"].tolist() == [1.5, 1.6, 1.7]

    def test_empty_file_is_an_error(self):
        with pytest.raises(EmptyInputError):
            parse_tick_file(_csv([]))

    def test_out_of_order_rows_are_sorted(self):
        recs = parse_tick_file(_csv([(30, 3.0), (10, 1.0), (20, 2.0)]))
        assert recs["timestamp"].tolist() == [10, 20, 30]
        assert recs["price"].tolist() == [1.0, 2.0, 3.0]

    def test_sort_is_stable_for_equal_timestamps(self):
        recs = parse_tick_file(_csv([(10, 1.0), (10, 2.0), (10, 3.0)]))
        assert recs["price"].tolist() == [1.0, 2.0, 3.0]

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3"):
            parse_tick_file(b"timestamp_ns,price\n10,1.0\nnot-a-number,2\n")

    def test_line_number_counts_the_lines_of_a_quoted_field(self):
        # the bad record starts on line 4; it is the third record
        with pytest.raises(TickParseError, match="line 4: could not convert"):
            parse_tick_file(b'timestamp_ns,price\n"1\n",5\n2,abc\n')
        with pytest.raises(TickParseError, match="line 4: field larger"):
            parse_tick_file(b'timestamp_ns,price\n"1\n",5\n' + b"1" * 200_000 + b",2.0\n")

    def test_non_positive_price_is_a_data_error(self):
        with pytest.raises(DataError):
            parse_tick_file(_csv([(10, -1.0)]))

    def test_bad_header(self):
        with pytest.raises(TickParseError, match="line 1"):
            parse_tick_file(b"time,price\n10,1.0\n")

    def test_timestamp_outside_int64_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3"):
            parse_tick_file(_csv([(10, 1.0), (2 ** 63, 2.0)]))
        assert parse_tick_file(_csv([(-2 ** 63, 1.0), (2 ** 63 - 1, 2.0)]))[
            "timestamp"].tolist() == [-2 ** 63, 2 ** 63 - 1]

    def test_comment_tail_is_a_parse_error(self):
        with pytest.raises(TickParseError, match="line 2"):
            parse_tick_file(b"timestamp_ns,price\n100,2.5#x\n")

    def test_header_only_file_is_empty(self):
        with pytest.raises(EmptyInputError):
            parse_tick_file(b"timestamp_ns,price\n")

    def test_nan_price_is_a_data_error_naming_its_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_tick_file(b"timestamp_ns,price\n10,1.0\n20,nan\n")

    def test_non_utf8_byte_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3: not valid UTF-8"):
            parse_tick_file(b"timestamp_ns,price\n10,1.0\n20,2.\xff5\n30,1.0\n")

    def test_oversized_field_reports_line_number(self):
        with pytest.raises(TickParseError, match="line 3"):
            parse_tick_file(b"timestamp_ns,price\n10,1.0\n" + b"1" * 200_000 + b",2.0\n")

    def test_plain_files_take_the_vectorised_path(self):
        data = b"timestamp_ns,price\r\n20, +2.5e0\r\n\r\n\t10 ,1E-3\n20,3\n"
        ticks = parse_tick_file(data, parse=lambda path: _parse_ticks_fast(path, data))
        assert ticks is not None
        assert ticks.tolist() == [(20, 2.5), (10, 0.001), (20, 3.0)]
        assert parse_tick_file(data).tolist() == [(10, 0.001), (20, 2.5), (20, 3.0)]
        # a file written the way the benchmark writes its tick files: ms arrivals
        # with repeats, repr prices, '\n' line ends; the line loop would give the
        # same ticks several times slower
        rng = np.random.default_rng(7)
        stamps = 1514764800 * NS_PER_S + np.cumsum(rng.integers(0, 3000, 500)) * 1_000_000
        prices = 100.0 * np.exp(np.cumsum(rng.standard_normal(500)) * 1e-4)
        data = ("timestamp_ns,price\n" + "\n".join(
            f"{t},{p!r}" for t, p in zip(stamps.tolist(), prices.tolist())) + "\n").encode()
        ticks = parse_tick_file(data, parse=lambda path: _parse_ticks_fast(path, data))
        assert ticks is not None
        assert ticks.tobytes() == _parse_ticks_lines(data).tobytes()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".csv.gz"])
    def test_compressed_suffix_has_no_meaning(self, suffix):
        """numpy opens a path named *.gz, *.bz2, *.xz or *.lzma as compressed; a plain
        tick file so named parses to the ticks of the same bytes named *.csv."""
        data = _csv([(20, 2.5), (10, 1.5), (20, 3.5)])
        assert (parse_tick_file(data, "ticks" + suffix).tobytes()
                == parse_tick_file(data).tobytes())


class TestResample:
    def test_previous_tick_rule(self):
        # tick at 0s and 2.5s, 1s grid: grid ends at 2s, all values carry 10
        ticks = _ticks([(0, 10.0), (int(2.5 * NS_PER_S), 11.0)])
        first, prices = resample(ticks, 0, NS_PER_S)
        assert first == 0 and prices.tolist() == [10.0, 10.0, 10.0]

    def test_single_tick(self):
        first, prices = resample(_ticks([(5, 2.0)]), 5, 10)
        assert first == 0 and prices.tolist() == [2.0]

    def test_delta_larger_than_span(self):
        first, prices = resample(_ticks([(0, 1.0), (5, 2.0)]), 0, 100)
        assert first == 0 and prices.tolist() == [1.0]

    def test_span_without_a_grid_time_has_no_prices(self):
        first, prices = resample(_ticks([(5, 1.0), (9, 2.0)]), 0, 10)
        assert first == 1 and len(prices) == 0

    def test_grid_phase_is_the_origin_not_the_first_tick(self):
        # ticks from 1s on a 2s grid from -4s: grid times 2s and 4s, k = 3 and 4
        ticks = _ticks([(NS_PER_S, 1.0), (3 * NS_PER_S, 2.0), (5 * NS_PER_S, 3.0)])
        first, prices = resample(ticks, -4 * NS_PER_S, 2 * NS_PER_S)
        assert first == 3 and prices.tolist() == [1.0, 2.0]

    def test_empty_sequence(self):
        with pytest.raises(EmptyInputError):
            resample(_ticks([]), 0, 10)

    @pytest.mark.parametrize("delta", [0, -10])
    def test_non_positive_delta(self, delta):
        with pytest.raises(DataError, match="delta must be positive"):
            resample(_ticks([(0, 1.0), (20, 2.0)]), 0, delta)

    def test_last_tick_wins_on_shared_timestamp(self):
        ticks = _ticks([(0, 1.0), (0, 9.0), (10, 2.0)])
        assert resample(ticks, 0, 10)[1][0] == 9.0

    def test_length_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ts = np.sort(rng.integers(0, 10_000, size=rng.integers(1, 40)))
            ticks = _ticks([(int(t), 1.0 + i) for i, t in enumerate(ts)])
            delta = int(rng.integers(1, 500))
            # an origin 7 steps before the first tick, on its phase
            first, prices = resample(ticks, int(ts[0]) - 7 * delta, delta)
            assert first == 7
            assert len(prices) == (ts[-1] - ts[0]) // delta + 1

    def test_idempotent_on_equally_spaced_input(self):
        values = [3.0, 4.0, 5.0, 6.0]
        ticks = _ticks([(100 * i, v) for i, v in enumerate(values)])
        first, once = resample(ticks, 0, 100)
        again = resample(_ticks([(100 * (first + k), v) for k, v in enumerate(once.tolist())]),
                         0, 100)
        assert again[0] == first
        assert np.array_equal(once, again[1])


class TestCalendar:
    def test_date_ns_is_midnight_utc(self):
        assert date_ns(date(1970, 1, 1)) == 0
        assert date_ns(date(1969, 12, 31)) == -86_400 * NS_PER_S
        assert date_ns(date(2019, 7, 13)) == 1_562_976_000 * NS_PER_S

    def test_month_start_ns_counts_calendar_months(self):
        assert month_start_ns(date(2018, 11, 1), 0) == date_ns(date(2018, 11, 1))
        assert month_start_ns(date(2018, 11, 1), 2) == date_ns(date(2019, 1, 1))
        assert month_start_ns(date(2018, 1, 1), 12) == 1_546_300_800 * NS_PER_S

    def test_iso_utc_shows_nanoseconds_only_when_present(self):
        assert iso_utc(1_518_307_140 * NS_PER_S) == "2018-02-10T23:59:00Z"
        assert iso_utc(-1) == "1969-12-31T23:59:59.999999999Z"
        assert iso_utc(-2**63) == "1677-09-21T00:12:43.145224192Z"


class TestSliceHorizon:
    # daily samples across the whole of 2018: (start_ns, delta_ns, length)
    YEAR = (date_ns(date(2018, 1, 1)), 86400 * NS_PER_S, 365)

    def test_full_year_m12_returns_everything(self):
        out = slice_horizon(*self.YEAR, date(2018, 1, 1), 12)
        assert out == slice(0, self.YEAR[2])

    def test_m1_keeps_january_only(self):
        out = slice_horizon(*self.YEAR, date(2018, 1, 1), 1)
        assert len(np.arange(365.0)[out]) == 31

    def test_m13_is_rejected(self):
        with pytest.raises(HorizonError, match=r"months must be in \[1, 12\], got 13"):
            slice_horizon(*self.YEAR, date(2018, 1, 1), 13)

    def test_short_series_is_an_error(self):
        start, delta, _ = self.YEAR
        with pytest.raises(HorizonError, match="the grid ends at 2018-02-09T00:00:00Z, "
                                               "before the 3-month horizon boundary "
                                               "2018-04-01T00:00:00Z"):
            slice_horizon(start, delta, 40, date(2018, 1, 1), 3)

    def test_expanding_prefix_property(self):
        values = np.arange(365.0)
        for m in range(1, 12):
            a = values[slice_horizon(*self.YEAR, date(2018, 1, 1), m)]
            b = values[slice_horizon(*self.YEAR, date(2018, 1, 1), m + 1)]
            assert len(a) < len(b)
            assert np.array_equal(a, b[:len(a)])

    def test_monthly_mode_is_disjoint(self):
        values = np.arange(365.0)
        feb = values[slice_horizon(*self.YEAR, date(2018, 1, 1), 2, mode="monthly")]
        assert len(feb) == 28
        jan = values[slice_horizon(*self.YEAR, date(2018, 1, 1), 1, mode="monthly")]
        assert jan[-1] < feb[0]

    def test_expanding_horizon_starts_at_year_start(self):
        # daily samples from 2017-12-01: December belongs to no 2018 horizon
        early = (date_ns(date(2017, 12, 1)), self.YEAR[1], 365 + 31)
        jan = (date(2018, 1, 1), 1)
        assert slice_horizon(*early, *jan) == slice_horizon(*early, *jan, mode="monthly")
        assert slice_horizon(*early, *jan) == slice(31, 62)

    @pytest.mark.parametrize("mode", ["expanding", "monthly"])
    def test_horizon_with_no_samples_is_an_error(self, mode):
        # a series that starts after January has no sample in M=1
        march = (date_ns(date(2018, 3, 1)),) + self.YEAR[1:]
        with pytest.raises(HorizonError, match="no samples fall inside the requested horizon"):
            slice_horizon(*march, date(2018, 1, 1), 1, mode=mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown horizon mode 'weekly'"):
            slice_horizon(*self.YEAR, date(2018, 1, 1), 1, mode="weekly")
