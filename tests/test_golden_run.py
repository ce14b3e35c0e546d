"""Golden run: every CLI command on a tiny config, compared byte for byte.

The run trains the tiny model of `test_cli`, then runs `evaluate` with one
and with two workers, `report`, `explain`, `shuffle-test` and `filter`, and
checks the sha256 of every file the run writes against recorded constants.
`explain`, `shuffle-test` and `filter` run again with two workers into a
second directory, whose files must match the one-worker run's.
`config.json` and `model_manifest.json` hold the run path and are skipped.

The digests are tied to the NumPy/OpenBLAS build they were recorded on: a
different BLAS may round the float64 matrix products differently, which
moves trained weights and map values in the last bits. A refactor that
claims unchanged outputs must keep this test passing on the same build.
"""

import hashlib
import os

import pytest

from apemkit.cli import main

from test_cli import TINY

SKIPPED = {"config.json", "model_manifest.json"}

GOLDEN = {
    "maps/filtered/img00000_gradient_s3.map":
        "400bfd6c12dec497e6a32f96ca48bea85e1483fd6d5da7e6df5087aad4eddc14",
    "maps/filtered/img00000_lrp_s3.map":
        "7b6fa00e7c54aae9768a27a910870554c82247a17c854133f1c157ffbf157ea5",
    "maps/filtered/img00001_gradient_s3.map":
        "5f24fc492b72047d3e7c5cd4db229554b19a30d1a7eb924c0382c162f74d69b3",
    "maps/filtered/img00001_lrp_s3.map":
        "4ef6ccd052d86a69b290d701aaf990291335eea81fdd0ae4012a097db4c27fa1",
    "maps/img00000_gradcam_s1.map":
        "02abf015cbd53240bdcb5b326ae627b841012a7e5b937e4e328dc202c73dec34",
    "maps/img00000_gradcam_s2.map":
        "185d4e7c2c6ba87282261ac267fe0a7784937d8d4148c939ec259e606720eb7c",
    "maps/img00000_gradcam_s3.map":
        "8fcc3f7c63e77e186b09f4e4dc2fcd962d75e192c1e1a6e3964a010e29938c67",
    "maps/img00000_gradient_s1.map":
        "1dd8affdb3a8faf6735b496afd58eae6128a7dbc6ca79f35047997a7877c0b18",
    "maps/img00000_gradient_s2.map":
        "848ef3d1342f75c961fb3fd02f2b7d3b0e9fb6f4aeffc558c62c349989ae8511",
    "maps/img00000_gradient_s3.map":
        "1a7930e55a88d7f0e4bb50052df8088477daf1fccd8af9ed3360b162db0eb816",
    "maps/img00000_guided_backprop_s1.map":
        "4cc46fe0973071e4d8e87fd005a3527543eeee93e41d37b8d100253e4ae43397",
    "maps/img00000_guided_backprop_s2.map":
        "db9cddb9d4fb2d9ac960aeb1848a3b3c234a3b303fe80886ff559eb7301fadcf",
    "maps/img00000_guided_backprop_s3.map":
        "531eb3fe6e5aa960e147996895c29c438a4fdea2540bd0315eb85d1a41c2d507",
    "maps/img00000_guided_gradcam_s1.map":
        "b4d48b36c417396a0e34d8679b4563b90484b7d8a162d3461078ece3d5d606fd",
    "maps/img00000_guided_gradcam_s2.map":
        "1d48e36cf55db1af6141b21b49c29214973ded72489ec0ac359652ac6ee5dfb3",
    "maps/img00000_guided_gradcam_s3.map":
        "dbe08b0253f14a5e81e19636f28093ecb3bc863121c21ccf159bfec1990dc167",
    "maps/img00000_lrp_s1.map":
        "a58c96825cad642f0a1512ee99322f7368b61423896ce0f734ab32595830ae3b",
    "maps/img00000_lrp_s2.map":
        "cb8e8b7af7a53c8d06bfa93fda676834ade2d88892035d0db42b2f397df124a4",
    "maps/img00000_lrp_s3.map":
        "16cb5220e14fb6e5ff3ad01a864d0a6528d2fdc9b6106a473d2e4bc162efc75e",
    "maps/img00000_smoothgrad_s1.map":
        "8ba2cfd52fc1539cbb80125cdd60fafb9071b228d5821329ef7c70cac0ea2a47",
    "maps/img00000_smoothgrad_s2.map":
        "06c1d077a26dc95ec55a5768eb5abe5fbbffddd47e3b0f95aad4ca44b56f0d53",
    "maps/img00000_smoothgrad_s3.map":
        "843e8187b606b23da52e0492f270b7f199b43db7de900ea4445868fa9c46d489",
    "maps/img00001_gradcam_s1.map":
        "71e61384b1f0b5d7b200bdbab4cd2ad676d06e4509d7e1fb7eb6d10adecbb541",
    "maps/img00001_gradcam_s2.map":
        "08f6608698a35f8eb4a18b495a019d1df703e0d5b556e44258d94bf6284f61fd",
    "maps/img00001_gradcam_s3.map":
        "c2dfbd192cfad10844ec960f7abfbbcc2f84366b435059f0936e9e4d35031efe",
    "maps/img00001_gradient_s1.map":
        "d9ccb79b072f3cbe3ed271c6542a7ad9e7c479cba7f5e23768361518b8c87a4a",
    "maps/img00001_gradient_s2.map":
        "89e116f26ae72c49f79e4721f7e781e061dcb6107b8c65bfdbb680e87d2c00fd",
    "maps/img00001_gradient_s3.map":
        "7dd2fdc1338a2c3622f50cff1673d5c56648370bafa33d65ab53ea1ecf5d12b2",
    "maps/img00001_guided_backprop_s1.map":
        "9e009e817b36bc95e903e0c42da2f7c829516972720edb85186e7e0a2626202b",
    "maps/img00001_guided_backprop_s2.map":
        "c68a52732d6478b7323a231117ed54b8c455eda65a1263b99110234309ef69ef",
    "maps/img00001_guided_backprop_s3.map":
        "0902595412063a6683f6e9f0f368a5ef901c028bc13ff205a35191a17ce8daeb",
    "maps/img00001_guided_gradcam_s1.map":
        "2170218a21232133d9f698550f7e13a0f772d11fe3a57a82d54fe384a71f228a",
    "maps/img00001_guided_gradcam_s2.map":
        "dbb5cef8ed3fae64f2f01edf8b5c27d0bcd2b781e1c3ec285408c22c59dc2aa1",
    "maps/img00001_guided_gradcam_s3.map":
        "899e147ccf621486e6c61fc6ad848069424f0aad70c08827562a6e023d151d2f",
    "maps/img00001_lrp_s1.map":
        "0079bebe32929ea24fd04dc4d7444c05d3ca262dc93690ea357bb80e1eb53d4e",
    "maps/img00001_lrp_s2.map":
        "7ff641c28f6c96ebd56828737188f267e670196cb4a84dfbd1b52316a68f4337",
    "maps/img00001_lrp_s3.map":
        "790f6f4c0a7a196ea231f5e63fe71bf2bae8fcb23516199029159f70848267d7",
    "maps/img00001_smoothgrad_s1.map":
        "80c41ceb23e573161f8b6f665fd28b44ab6e57d11e6094f6bcbcc73a571b2a1c",
    "maps/img00001_smoothgrad_s2.map":
        "a718df1cfc53cd9187309560d765e82557af0a406f65a62abca54b5de91b759b",
    "maps/img00001_smoothgrad_s3.map":
        "6e21b1e6afdd8655ea35b7a4ba510aeeccdfae0e8cef1aae469bfb8cacc719bc",
    "maps/img00002_gradcam_s1.map":
        "688b30990a4facfbdcc39545928f3b835f3d0f4af2ca6465132c9f0c9e03cf12",
    "maps/img00002_gradcam_s2.map":
        "787fd52108391a63a4548f200527dd885fdbbe80a6c17dfd739def823c4aedbe",
    "maps/img00002_gradcam_s3.map":
        "fd7e0f5c89bb3a944520ad09cfd6ba71bb4d7717a3c740fba5b2ad6c9df91f93",
    "maps/img00002_gradient_s1.map":
        "fd54f9a48131b839eb3e2e89d4deade43ef08d4e026477072c2049cafa864f83",
    "maps/img00002_gradient_s2.map":
        "5e980dab5d88b4fdbd8774065c11b3918fb01c6d982225c9c9fd95d894efff92",
    "maps/img00002_gradient_s3.map":
        "e1b2a3f8840f40cb0f6acf7d2efc844cfa418e60c35b3f5ac8729c4e9306d603",
    "maps/img00002_guided_backprop_s1.map":
        "ab1ee6b0ab9d6572a6554c3a090c819d9202cda504e41578b26f9b0c6d86a08a",
    "maps/img00002_guided_backprop_s2.map":
        "7042e01dee32a7dbf9195d242df27e90be56d23ac5a814190e0ee612847cc5ec",
    "maps/img00002_guided_backprop_s3.map":
        "7e67b39b43a4c8bf1108b6c98e58c46f24bb18e14b70863f177af7f685592afd",
    "maps/img00002_guided_gradcam_s1.map":
        "4fb37504c59a30d489f9dcef42b2e48fa1bf5187d4f78e1d218937204dd0f710",
    "maps/img00002_guided_gradcam_s2.map":
        "89d7f1777300ee55d65bc195b520b747e23477f2b34814d2e8ca4dc08e8889d3",
    "maps/img00002_guided_gradcam_s3.map":
        "77f2792c21a60831c018623398f730fdaad9c513e108fd35031c6fd6f47196aa",
    "maps/img00002_lrp_s1.map":
        "32daac72ab2959bf05188ebaaef39ceba81322ed9b6c28358c6a16a195816030",
    "maps/img00002_lrp_s2.map":
        "5142b7d14f3d5390307132879c46f398439af5db1b172c224dded669fa7794fe",
    "maps/img00002_lrp_s3.map":
        "0c928241c7a6e1d0a2c9c8fc2e279f68bdc764df70b0f87b703f2629489799fd",
    "maps/img00002_smoothgrad_s1.map":
        "5804729c62b754f29e0e0ddb92df0b6cbf5221eed5de678215a796b8a40124a4",
    "maps/img00002_smoothgrad_s2.map":
        "f6743b15b018f03eadbaa376e1d78dbbf2b1041048271d212f2d0ce2ea6e354b",
    "maps/img00002_smoothgrad_s3.map":
        "ab46d583f637bbb6afa1595bf099007e9dc41bfbfca277585bc6772095b5b2c8",
    "maps/img00003_gradcam_s1.map":
        "e654e6a6561efe283a1dfd02ce0bb78de40da0aed01ed4ad8dd33356f53b0df6",
    "maps/img00003_gradcam_s2.map":
        "88f08b25acdf4b30270db91bbe93029aabcb44613128e8df33fa66883704e62f",
    "maps/img00003_gradcam_s3.map":
        "a05bc2e3f56b4b5246906abb2325072b46c6045d009b83d3ca194da4475c6998",
    "maps/img00003_gradient_s1.map":
        "15b2d3f6c5b3cf6af60cda5c07e5e3f2342dd160809682232efb4280b1c77e4d",
    "maps/img00003_gradient_s2.map":
        "d3523e854a500b788446569e03098c74ad0f61add95dafaf440398a7ad99c0bd",
    "maps/img00003_gradient_s3.map":
        "3241241436ab96c42086d03a45c8297f8e1ce6e5e142cc9c8afdc7ba86865339",
    "maps/img00003_guided_backprop_s1.map":
        "f3eec59ec505f30555f8660adf74ca61847a8b910b7fe172798d7ec8a796a43c",
    "maps/img00003_guided_backprop_s2.map":
        "79a7bf4d581a994ae012f372adb30bc2866e154bad0f90a1489f62d2d8f68843",
    "maps/img00003_guided_backprop_s3.map":
        "f9d407a7a71310fd1b63dca7b9e0c07f72881f483eeb4f53f0b2020a3c47cdc7",
    "maps/img00003_guided_gradcam_s1.map":
        "2fabda2f43dd4b766bb5424aa50c893a88915693cccc4170e22609bb58f4b191",
    "maps/img00003_guided_gradcam_s2.map":
        "b070ff34e987ed3286f78fced34f9cb76fc7743ec6b17fe25bd807d4de70ea91",
    "maps/img00003_guided_gradcam_s3.map":
        "e9fc56f6151a0c8ff412c8634eec83d6dc04beacf520e0e7f9a3b5dd2d61b6b4",
    "maps/img00003_lrp_s1.map":
        "1b9604a292f7f6381f664f9bb8d2275f9cb11b26d85cdcb9b0373989376a288f",
    "maps/img00003_lrp_s2.map":
        "485bde1c97844ae19df083de2421f52d5401f6d54d938976ae52d33a717989b5",
    "maps/img00003_lrp_s3.map":
        "56910bc5164278b52fd17e6684c370d36386c7438a81a8e5261e993b44ff5579",
    "maps/img00003_smoothgrad_s1.map":
        "c43c8bf1390383837d5e2fea2f08f823b2213b737d4429066590986e325a69d0",
    "maps/img00003_smoothgrad_s2.map":
        "61cb1f2d6975147e53132aea341d43836704834b7f168776e6a550eb7be46778",
    "maps/img00003_smoothgrad_s3.map":
        "d2d49475b5bc3b2e7448b4c87f8ca8f201c59ea6d1b3ce54e46f95f5ceb2bbae",
    "model.net":
        "dbd207d70dc74a8fa9a6962fcb4629864c93270a623fdb98d5d753abc492e8e3",
    "reports/correlation.csv":
        "35aa050c5029489aa6cb5d36a0c8cd2e13a67db990afa6a2396a3ca89d4f427f",
    "reports/eps_plus_diff.csv":
        "9f866b9e72ac24cb7412ac44f0c2f32f038499ffde46fe033e7e77da586ea94b",
    "reports/pairwise.csv":
        "3c345f55c87844aeba7eadb819e417e5b9c8f9d0447f33ec80f43b4515ce83ca",
    "reports/summary.csv":
        "f2d9f456ed283cde8e6d2bde939d1419efcc56c5dc49a13c760364534784ebdc",
    "reports/summary_split.csv":
        "2367c7f86479986b6acadcc6286dfb00e57b0205ffd58b6e1ff3cad039a22611",
    "results/correct.csv":
        "c3af83bb7cd89b7ace7cc002f39fd344399ff32618a7b5444e99e56083537729",
    "results/filter_trace.csv":
        "82bce0b9d17e73fd0a6d40cc49685685bc13c3e8b4fe972310cfe9021de967e6",
    "results/misclassified.csv":
        "c3b5d82b35e17431a50c7b3cf34ecc1b21356011188629854dce97a32b0e922c",
    "results/per_image.csv":
        "c3b5d82b35e17431a50c7b3cf34ecc1b21356011188629854dce97a32b0e922c",
    "results/shuffle.csv":
        "cdab0f3adf886e0a8b0cf9378a2908d3bb0c9b8cea4372c86f0369d601a3e1bf",
}


def _digests(out):
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            if name in SKIPPED:
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out)] = hashlib.sha256(f.read()).hexdigest()
    return found


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("golden"))
    args = [*TINY, "--out", out, "--limit", "4", "--smooth-n", "4"]
    assert main(["train", *TINY, "--out", out]) == 0
    assert main(["evaluate", *args]) == 0
    one_worker = {k: v for k, v in _digests(out).items() if k.startswith("results")}
    assert main(["evaluate", *args, "--workers", "2"]) == 0
    assert main(["report", *args]) == 0
    assert main(["explain", *args]) == 0
    assert main(["shuffle-test", *args, "--limit", "2", "--k-shuffles", "3"]) == 0
    assert main(["filter", *args, "--limit", "2", "--methods", "gradient,lrp,gradcam"]) == 0
    # the pooled commands again at two workers, into a run of their own
    pooled = str(tmp_path_factory.mktemp("golden2"))
    args2 = [*TINY, "--out", pooled, "--model", os.path.join(out, "model.net"),
             "--limit", "4", "--smooth-n", "4", "--workers", "2"]
    assert main(["explain", *args2]) == 0
    assert main(["shuffle-test", *args2, "--limit", "2", "--k-shuffles", "3"]) == 0
    assert main(["filter", *args2, "--limit", "2", "--methods", "gradient,lrp,gradcam"]) == 0
    return one_worker, _digests(out), _digests(pooled)


def test_evaluate_is_identical_at_one_and_two_workers(golden_run):
    one_worker, final, _ = golden_run
    assert one_worker == {k: final[k] for k in one_worker}


def test_pooled_commands_are_identical_at_one_and_two_workers(golden_run):
    _, final, two_workers = golden_run
    expected = {k: v for k, v in final.items()
                if k.startswith("maps") or k in ("results/shuffle.csv", "results/filter_trace.csv")}
    assert two_workers == expected


def test_every_output_file_matches_its_recorded_digest(golden_run):
    _, final, _ = golden_run
    assert final == GOLDEN
