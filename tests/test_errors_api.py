"""Tests for the exception hierarchy and top-level package surface."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_everything_derives_from_picloud_error(self):
        families = [
            errors.SimulationError,
            errors.HardwareError,
            errors.OutOfMemoryError,
            errors.StorageFullError,
            errors.PowerStateError,
            errors.NetworkError,
            errors.NoRouteError,
            errors.AddressError,
            errors.ConnectionRefusedError,
            errors.ConnectionResetError,
            errors.VirtualisationError,
            errors.ContainerStateError,
            errors.ImageError,
            errors.MigrationError,
            errors.ManagementError,
            errors.RestError,
            errors.LeaseError,
            errors.NameError_,
            errors.PlacementError,
            errors.SchedulingError,
        ]
        for family in families:
            assert issubclass(family, errors.PiCloudError)

    def test_hardware_family(self):
        for exc in (errors.OutOfMemoryError, errors.StorageFullError,
                    errors.PowerStateError):
            assert issubclass(exc, errors.HardwareError)

    def test_network_family(self):
        for exc in (errors.NoRouteError, errors.AddressError,
                    errors.ConnectionRefusedError, errors.ConnectionResetError):
            assert issubclass(exc, errors.NetworkError)

    def test_virtualisation_family(self):
        for exc in (errors.ContainerStateError, errors.ImageError,
                    errors.MigrationError):
            assert issubclass(exc, errors.VirtualisationError)

    def test_management_family(self):
        for exc in (errors.RestError, errors.LeaseError, errors.NameError_):
            assert issubclass(exc, errors.ManagementError)

    def test_one_catch_clause_suffices(self):
        with pytest.raises(errors.PiCloudError):
            raise errors.NoRouteError("nope")

    def test_rest_error_carries_status(self):
        exc = errors.RestError(404, "missing")
        assert exc.status == 404
        assert exc.message == "missing"
        assert "404" in str(exc)

    def test_rest_error_without_message(self):
        assert str(errors.RestError(500)) == "HTTP 500"


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "6.0.0"

    def test_lazy_exports(self):
        assert repro.PiCloud.__name__ == "PiCloud"
        assert repro.PiCloudConfig.__name__ == "PiCloudConfig"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            _ = repro.Nonsense

    def test_all_subpackages_import(self):
        import repro.apps
        import repro.calibration
        import repro.core
        import repro.faults
        import repro.hardware
        import repro.hostos
        import repro.mgmt
        import repro.netsim
        import repro.netsim.sdn
        import repro.placement
        import repro.power
        import repro.sim
        import repro.telemetry
        import repro.virt
