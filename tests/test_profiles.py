"""Tests for repro.workload.profiles."""

import pytest

from repro.workload.profiles import (
    PROFILES,
    SYSTEM_FS_PROFILE,
    USERS_FS_PROFILE,
    WorkloadProfile,
    profile,
    profile_for_disk,
)


class TestPresets:
    def test_registry(self):
        assert profile("system") is SYSTEM_FS_PROFILE
        assert profile("USERS") is USERS_FS_PROFILE
        assert set(PROFILES) == {"system", "users"}

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile("database")

    def test_paper_monitoring_window(self):
        """Reference counts were measured 7am-10pm: 15 hours."""
        assert SYSTEM_FS_PROFILE.day_hours == 15.0
        assert SYSTEM_FS_PROFILE.day_ms == 15 * 3_600_000

    def test_system_profile_is_read_only_with_atime_writes(self):
        assert SYSTEM_FS_PROFILE.new_files_per_day == 0
        assert SYSTEM_FS_PROFILE.edit_session_fraction == 0.0
        assert SYSTEM_FS_PROFILE.open_sessions_per_hour > 0

    def test_users_profile_has_churn_and_drift(self):
        assert USERS_FS_PROFILE.new_files_per_day > 0
        assert USERS_FS_PROFILE.edit_session_fraction > 0
        assert USERS_FS_PROFILE.popularity_reshuffle_fraction > \
            SYSTEM_FS_PROFILE.popularity_reshuffle_fraction

    def test_users_profile_flatter_than_system(self):
        assert (
            USERS_FS_PROFILE.file_popularity_exponent
            < SYSTEM_FS_PROFILE.file_popularity_exponent
        )


class TestScaled:
    def test_scaled_shrinks_day_only(self):
        short = SYSTEM_FS_PROFILE.scaled(hours=1.0)
        assert short.day_hours == 1.0
        assert short.read_sessions_per_hour == SYSTEM_FS_PROFILE.read_sessions_per_hour
        assert short.sync_interval_s == SYSTEM_FS_PROFILE.sync_interval_s

    def test_scaled_rescales_per_day_totals(self):
        short = USERS_FS_PROFILE.scaled(hours=USERS_FS_PROFILE.day_hours / 3)
        assert short.new_files_per_day == round(
            USERS_FS_PROFILE.new_files_per_day / 3
        )

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            SYSTEM_FS_PROFILE.scaled(hours=0)


class TestProfileForDisk:
    def test_system_fujitsu_scaled_up(self):
        adapted = profile_for_disk(SYSTEM_FS_PROFILE, "fujitsu")
        assert adapted.num_directories > SYSTEM_FS_PROFILE.num_directories
        assert (
            adapted.read_sessions_per_hour
            > SYSTEM_FS_PROFILE.read_sessions_per_hour
        )

    def test_system_toshiba_unchanged(self):
        assert profile_for_disk(SYSTEM_FS_PROFILE, "toshiba") is SYSTEM_FS_PROFILE

    def test_users_toshiba_has_ten_homes(self):
        """Paper: ten home directories on the Toshiba, twenty on the
        Fujitsu (Section 5)."""
        adapted = profile_for_disk(USERS_FS_PROFILE, "toshiba")
        assert adapted.num_directories == 10
        assert profile_for_disk(USERS_FS_PROFILE, "fujitsu").num_directories == 20

    def test_custom_profiles_pass_through(self):
        custom = WorkloadProfile(name="mine")
        assert profile_for_disk(custom, "fujitsu") is custom
