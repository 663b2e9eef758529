"""Container validation, versioned array file round trips and the JSON reader."""

import io
import json

import numpy as np
import pytest

from haloscan import (
    CalibrationSet,
    DataError,
    RawSpectrum,
    read_calibration_set,
    read_spectrum,
    write_calibration_set,
    write_spectrum,
)
from haloscan.artifacts import atomic_open, read_json
from haloscan.spectra import SpectrumFile, open_spectrum
from conftest import join_array_file, split_array_file


def make_spectrum(step_id=3, n=64, seed=5, **meta):
    rng = np.random.default_rng(seed)
    return RawSpectrum(
        step_id=step_id,
        nu_start_hz=4.1385e9,
        bin_width_hz=100.0,
        psd=1e5 * (1.0 + 0.01 * rng.standard_normal(n)),
        n_averages=360000,
        metadata=meta,
    )


class TestRawSpectrum:
    def test_frequencies(self):
        s = make_spectrum(n=4)
        np.testing.assert_allclose(
            s.frequencies, 4.1385e9 + np.array([0.0, 100.0, 200.0, 300.0])
        )

    @pytest.mark.parametrize(
        "bad",
        [
            dict(psd=np.ones((2, 2))),
            dict(psd=np.array([])),
            dict(psd=np.array([1.0, np.nan])),
            dict(psd=np.array([1.0, -2.0])),
            dict(bin_width_hz=0.0),
            dict(n_averages=0),
        ],
    )
    def test_validation(self, bad):
        kwargs = dict(
            step_id=0,
            nu_start_hz=4e9,
            bin_width_hz=100.0,
            psd=np.ones(8),
            n_averages=100,
        )
        kwargs.update(bad)
        with pytest.raises(DataError):
            RawSpectrum(**kwargs)


V1_TEXT_SPECTRUM = (
    "haloscan-spectrum v1\n# step_id 3\n# nu_start_hz 4138500000.0\n"
    "# bin_width_hz 100.0\n# n_bins 2\n# n_averages 360000\n1.0\n2.0\n"
)


class TestSpectrumFile:
    def test_round_trip_exact(self, tmp_path):
        s = make_spectrum(
            flag=True, note="nominal", probe_power=1.0172, freq_drift_hz=312.5, count=7,
            label="7",
        )
        path = tmp_path / "s.spec"
        write_spectrum(s, path)
        back = read_spectrum(path)
        assert back.step_id == s.step_id
        assert back.nu_start_hz == s.nu_start_hz
        assert back.bin_width_hz == s.bin_width_hz
        assert back.n_averages == s.n_averages
        np.testing.assert_array_equal(back.psd, s.psd)  # float64 on disk: exact
        assert back.metadata["flag"] is True
        assert back.metadata["note"] == "nominal"
        assert back.metadata["probe_power"] == 1.0172
        assert back.metadata["freq_drift_hz"] == 312.5
        assert back.metadata["count"] == 7
        assert back.metadata["label"] == "7"  # typed: a numeric string stays a string

    def test_write_is_deterministic(self, tmp_path):
        s = make_spectrum(b="2", a="1")
        write_spectrum(s, tmp_path / "x.spec")
        write_spectrum(s, tmp_path / "y.spec")
        assert (tmp_path / "x.spec").read_bytes() == (tmp_path / "y.spec").read_bytes()

    def test_columns_load_with_numpy(self, tmp_path):
        s = make_spectrum(n=16)
        path = tmp_path / "s.spec"
        write_spectrum(s, path)
        with open(path, "rb") as fh:
            assert fh.readline() == b"haloscan-spectrum v2\n"
            assert json.loads(fh.readline())["columns"] == ["psd"]
            np.testing.assert_array_equal(np.load(fh), s.psd)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_bytes(b"something else v2\n{}\n")
        with pytest.raises(DataError):
            read_spectrum(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "v.spec"
        write_spectrum(make_spectrum(), p)
        _, header, payload = split_array_file(p)
        join_array_file(p, b"haloscan-spectrum v9", header, payload)
        with pytest.raises(DataError, match="version"):
            read_spectrum(p)

    def test_v1_text_file_refused(self, tmp_path):
        p = tmp_path / "old.spec"
        p.write_text(V1_TEXT_SPECTRUM)
        with pytest.raises(DataError, match="re-run `haloscan simulate`"):
            read_spectrum(p)

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "t.spec"
        write_spectrum(make_spectrum(n=16), p)
        magic, header, payload = split_array_file(p)
        header["n_bins"] = 13
        join_array_file(p, magic, header, payload)
        with pytest.raises(DataError, match="13 bins"):
            read_spectrum(p)

    @pytest.mark.parametrize("cut", [8, 100, 190])
    def test_truncated_payload(self, tmp_path, cut):
        p = tmp_path / "t.spec"
        write_spectrum(make_spectrum(n=16), p)
        magic, header, payload = split_array_file(p)
        # 190 of the 256 payload bytes cut reaches into the .npy header
        join_array_file(p, magic, header, payload[:-cut])
        with pytest.raises(DataError):
            read_spectrum(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.spec"
        write_spectrum(make_spectrum(n=16), p)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(DataError, match="trailing"):
            read_spectrum(p)

    @pytest.mark.parametrize("line", [b"{not json", b"[1, 2]", b'{"columns": ["psd"]}'])
    def test_malformed_header(self, tmp_path, line):
        p = tmp_path / "h.spec"
        write_spectrum(make_spectrum(n=16), p)
        magic, _, payload = p.read_bytes().split(b"\n", 2)
        p.write_bytes(magic + b"\n" + line + b"\n" + payload)
        with pytest.raises(DataError):
            read_spectrum(p)

    def test_metadata_key_collision(self, tmp_path):
        s = make_spectrum(n_bins=99)  # shadows a core header key
        with pytest.raises(DataError):
            write_spectrum(s, tmp_path / "c.spec")
        assert not list(tmp_path.iterdir())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_spectrum(tmp_path / "nope.spec")


class TestOpenSpectrum:
    """``open_spectrum`` checks the header at open and reads the PSD on access."""

    def test_matches_read_spectrum(self, tmp_path):
        path = tmp_path / "s.spec"
        write_spectrum(make_spectrum(n=32, probe_power=1.02, note="nominal"), path)
        opened, read = open_spectrum(path), read_spectrum(path)
        assert isinstance(opened, SpectrumFile)
        for name in ("step_id", "nu_start_hz", "bin_width_hz", "n_averages", "n_bins",
                     "metadata"):
            assert getattr(opened, name) == getattr(read, name), name
        assert opened.psd.tobytes() == read.psd.tobytes()

    def test_truncated_file_refused_at_open(self, tmp_path):
        path = tmp_path / "t.spec"
        write_spectrum(make_spectrum(n=16), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="malformed column payload"):
            open_spectrum(path)

    def test_non_float64_column_refused_at_open(self, tmp_path):
        path = tmp_path / "f.spec"
        s = make_spectrum(n=16)
        write_spectrum(s, path)
        magic, header, _ = split_array_file(path)
        payload = io.BytesIO()
        np.save(payload, s.psd.astype(np.float32))
        join_array_file(path, magic, header, payload.getvalue())
        with pytest.raises(DataError, match="float32"):
            open_spectrum(path)

    def test_negative_sample_written_after_open(self, tmp_path):
        path = tmp_path / "n.spec"
        write_spectrum(make_spectrum(n=16), path)
        opened = open_spectrum(path)
        data = bytearray(path.read_bytes())
        at = opened.offsets["psd"] + 8 * 5
        data[at : at + 8] = np.array(-1.0, dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="negative"):
            opened.psd


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("half")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"


class TestCalibrationSetFile:
    def _calset(self):
        kwargs = {
            role: make_spectrum(step_id=9, seed=i, load_temp_k=(0.333 if role == "hot" else 0.061))
            for i, role in enumerate(CalibrationSet.ROLES)
        }
        return CalibrationSet(step_id=9, t_hot_k=0.333, t_cold_k=0.061, **kwargs)

    def test_round_trip(self, tmp_path):
        cs = self._calset()
        d = tmp_path / "cal"
        write_calibration_set(cs, d)
        back = read_calibration_set(d)
        assert back.step_id == 9
        assert back.t_hot_k == 0.333
        assert back.t_cold_k == 0.061
        for role in CalibrationSet.ROLES:
            np.testing.assert_array_equal(
                getattr(back, role).psd, getattr(cs, role).psd
            )

    def test_missing_role(self, tmp_path):
        cs = self._calset()
        d = tmp_path / "cal"
        write_calibration_set(cs, d)
        (d / "meas2.spec").unlink()
        with pytest.raises(DataError):
            read_calibration_set(d)


@pytest.mark.parametrize(
    "content,fmt,match",
    [
        (None, None, "cannot read"),
        (b"{not json", None, "malformed JSON"),
        (b'{"a": "\xff"}', None, "malformed JSON"),
        (b"[]", None, "not a JSON object"),
        (b"[]", "haloscan-exclusion", "not an exclusion result"),
        (b'{"format": "haloscan-calibration", "version": 1}', "haloscan-exclusion",
         "not an exclusion result"),
        (b'{"format": "haloscan-exclusion", "version": 2}', "haloscan-exclusion",
         "version 2"),
    ],
    ids=["missing", "bad-json", "bad-utf8", "non-object", "non-object-fmt", "wrong-format",
         "wrong-version"],
)
def test_read_json_refuses(tmp_path, content, fmt, match):
    path = tmp_path / "record.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match=match):
        read_json(path, fmt)

