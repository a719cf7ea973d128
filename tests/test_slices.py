"""Unit tests for the FABlib-style slice reservation model."""

import pytest

from repro.testbeds import (
    NetworkServiceKind,
    NICKind,
    Site,
    Slice,
    SliceError,
    default_site,
)
from repro.testbeds.slices import NodeRole


def paper_slice() -> Slice:
    """The artifact's three-VM topology over an L2Bridge (Appendix B)."""
    sl = Slice("choir-eval")
    gen = sl.add_node("generator", role=NodeRole.GENERATOR)
    rep = sl.add_node("replayer", role=NodeRole.REPLAYER)
    rec = sl.add_node("recorder", role=NodeRole.RECORDER)
    gen.add_nic("nic0", NICKind.DEDICATED_CX6)
    rep.add_nic("nic0", NICKind.DEDICATED_CX6)
    rep.add_nic("nic1", NICKind.DEDICATED_CX6)
    rec.add_nic("nic0", NICKind.DEDICATED_CX6)
    sl.add_network_service(
        "bridge",
        NetworkServiceKind.L2_BRIDGE,
        [("generator", "nic0"), ("replayer", "nic0"),
         ("replayer", "nic1"), ("recorder", "nic0")],
    )
    return sl


class TestSiteResources:
    def test_default_site_matches_paper_quote(self):
        """'2% of available CPU, 1.1% of RAM and 0.8% of disk space.'"""
        u = default_site().utilization()
        assert u["cores"] == pytest.approx(0.02, abs=0.002)
        assert u["ram"] == pytest.approx(0.011, abs=0.002)
        assert u["disk"] == pytest.approx(0.008, abs=0.002)

    def test_reservation_accounting(self):
        sl = paper_slice()
        before = sl.site.allocated_cores
        sl.submit()
        assert sl.site.allocated_cores == before + 12  # 3 nodes x 4 cores
        sl.delete()
        assert sl.site.allocated_cores == before

    def test_overcommit_rejected(self):
        tiny = Site(total_cores=4, total_ram_gb=8, total_disk_gb=10)
        sl = Slice("big", site=tiny)
        sl.add_node("n", cores=8, ram_gb=4, disk_gb=5)
        with pytest.raises(SliceError, match="cannot satisfy"):
            sl.submit()
        assert not sl.submitted


class TestSliceLifecycle:
    def test_submit_freezes(self):
        sl = paper_slice()
        sl.submit()
        with pytest.raises(SliceError, match="submitted"):
            sl.add_node("late")
        with pytest.raises(SliceError, match="submitted"):
            sl.submit()

    def test_delete_unsubmitted_is_noop(self):
        sl = paper_slice()
        sl.delete()  # no raise
        assert not sl.submitted

    def test_empty_slice_rejected(self):
        with pytest.raises(SliceError, match="empty"):
            Slice("nothing").submit()

    def test_duplicate_node_rejected(self):
        sl = paper_slice()
        with pytest.raises(SliceError, match="already has node"):
            sl.add_node("generator")

    def test_duplicate_nic_rejected(self):
        sl = paper_slice()
        with pytest.raises(SliceError, match="already has NIC"):
            sl.nodes["generator"].add_nic("nic0", NICKind.SHARED_VF)

    def test_service_validates_endpoints(self):
        sl = paper_slice()
        with pytest.raises(SliceError, match="unknown node"):
            sl.add_network_service(
                "bad", NetworkServiceKind.L2_BRIDGE,
                [("ghost", "nic0"), ("generator", "nic0")],
            )
        with pytest.raises(SliceError, match="no NIC"):
            sl.add_network_service(
                "bad2", NetworkServiceKind.L2_BRIDGE,
                [("generator", "nicX"), ("recorder", "nic0")],
            )

    def test_ptp_flag(self):
        sl = paper_slice()
        assert sl.ptp_synchronized  # 23/33 sites; default site has it
        no_ptp = Slice("x", site=Site(ptp_available=False))
        assert not no_ptp.ptp_synchronized


class TestServiceKinds:
    def test_l2ptp_needs_two_endpoints(self):
        sl = paper_slice()
        with pytest.raises(SliceError, match="exactly two"):
            sl.add_network_service(
                "ptp", NetworkServiceKind.L2_PTP,
                [("generator", "nic0"), ("replayer", "nic0"), ("recorder", "nic0")],
            )

    def test_minimum_two_endpoints(self):
        sl = paper_slice()
        with pytest.raises(SliceError, match="at least two"):
            sl.add_network_service(
                "lonely", NetworkServiceKind.L2_BRIDGE, [("generator", "nic0")]
            )

    def test_shared_detection(self):
        sl = paper_slice()
        assert not sl.uses_shared_nics()
        sl.nodes["recorder"].add_nic("vf0", NICKind.SHARED_VF)
        assert sl.uses_shared_nics()
