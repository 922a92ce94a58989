"""Golden digests of simulation output: any engine change must leave them put.

Each digest is the SHA-256 of a run's ``events_csv()``, its ``to_text()``
summary, ``final_tick``, ``halted_on_depletion``, ``residual_mah``,
``lifetimes`` and ``counts``.  The wording of the halt note in the
summary header is pinned by the CLI tests instead, so it is normalised
here; whether and where the run halted is still covered.

The digests were recorded with the per-tick engine that predates the
compiled request programs.  Print the current table with
``PYTHONPATH=src python tests/test_golden_logs.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import re
import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import MODELS_DIR, SECOND_SENSOR, alarmed_model, tiny_model  # noqa: E402

PER = 1.5000012e-4  # mAh of one sense + transmit on the fixture devices


def _padova(sim_time):
    from iotdraw import load_model
    model = load_model(MODELS_DIR / "padova_fw.iot")
    return dataclasses.replace(
        model, sim_config=dataclasses.replace(model.sim_config, simulation_time=sim_time))


def _freshness():
    from iotdraw import load_model
    return load_model(MODELS_DIR / "freshness_demo.iot")


def _two_sensors():
    from iotdraw import parse_model
    text = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
    return parse_model(text + SECOND_SENSOR, "<two_sensors>")


MODELS = {
    "padova_400": lambda: _padova(400),
    "padova_400500": lambda: _padova(400_500),
    "freshness": _freshness,
    "two_sensors": _two_sensors,
    "tiny": lambda: tiny_model(sim_time=30, interval=2, data="uniform(0, 30)"),
    "tiny_drained": lambda: tiny_model(sim_time=30, interval=2, capacity=5 + 3.5 * PER),
    "alarmed": lambda: alarmed_model(sim_time=30, interval=2, data="uniform(0, 40)"),
    "alarmed_drained": lambda: alarmed_model(sim_time=40, interval=1, capacity=5 + 6.5 * PER,
                                             data="trace [30, 5, 25]"),
}


@lru_cache(maxsize=None)
def _model(name):
    model = MODELS[name]()
    assert not isinstance(model, list), [d.render() for d in model]
    return model


def _halt_sets(name):
    """No halting, halting on every device, and (two sensors) on one named device."""
    devices = tuple(sorted(p.name for p in _model(name).platforms if p.tier.value == "device"))
    sets = {"none": (), "all": devices}
    if name == "two_sensors":
        sets["level_sensor_1"] = ("level_sensor_1",)
    return sets


def _cases():
    for name in MODELS:
        for max_age in (0, 1, 2, 5):
            for halt in _halt_sets(name):
                for record in (True, False):
                    # The long padova run keeps its event log only for two
                    # windows, which keeps the suite quick.
                    if name == "padova_400500" and record and (halt != "none" or max_age not in (0, 2)):
                        continue
                    yield f"{name}-age{max_age}-halt_{halt}-{'log' if record else 'counts'}"


def digest(case_id: str) -> str:
    from iotdraw import COLLECT, FreshnessPolicy, run_simulation
    name, age, halt, mode = case_id.split("-")
    report = run_simulation(_model(name), freshness=FreshnessPolicy(int(age[3:])),
                            halt_on=_halt_sets(name)[halt[5:]],
                            sink=COLLECT if mode == "log" else None)
    text = re.sub(r" \(halted[^)]*\)", " (halted)", report.to_text())
    parts = [report.events_csv(), text, repr(report.final_tick),
             repr(report.halted_on_depletion), repr(report.residual_mah),
             repr(report.lifetimes), repr(report.counts)]
    return hashlib.sha256("\x1e".join(parts).encode("utf-8")).hexdigest()


GOLDEN = {
    'padova_400-age0-halt_none-log': '2dd7959610da7443ab43a8c0afdc5709577e0767e300352b7a8c1f6bba47c29b',
    'padova_400-age0-halt_none-counts': '0714c209d7e01b7cfdb1b1a0c9d470c3cf15c108c74de78358cca0bd8e810c36',
    'padova_400-age0-halt_all-log': '2dd7959610da7443ab43a8c0afdc5709577e0767e300352b7a8c1f6bba47c29b',
    'padova_400-age0-halt_all-counts': '0714c209d7e01b7cfdb1b1a0c9d470c3cf15c108c74de78358cca0bd8e810c36',
    'padova_400-age1-halt_none-log': '2dd7959610da7443ab43a8c0afdc5709577e0767e300352b7a8c1f6bba47c29b',
    'padova_400-age1-halt_none-counts': '0714c209d7e01b7cfdb1b1a0c9d470c3cf15c108c74de78358cca0bd8e810c36',
    'padova_400-age1-halt_all-log': '2dd7959610da7443ab43a8c0afdc5709577e0767e300352b7a8c1f6bba47c29b',
    'padova_400-age1-halt_all-counts': '0714c209d7e01b7cfdb1b1a0c9d470c3cf15c108c74de78358cca0bd8e810c36',
    'padova_400-age2-halt_none-log': 'fd77a88c43c158a7e8c3e38a24ff2605d9b14c94bec3cac224dc451c7007bfea',
    'padova_400-age2-halt_none-counts': '05e75eefa7303117995c58c118f0114669bf9eb93203a0f38e11684247eb1a0f',
    'padova_400-age2-halt_all-log': 'fd77a88c43c158a7e8c3e38a24ff2605d9b14c94bec3cac224dc451c7007bfea',
    'padova_400-age2-halt_all-counts': '05e75eefa7303117995c58c118f0114669bf9eb93203a0f38e11684247eb1a0f',
    'padova_400-age5-halt_none-log': 'd820adee26e2934267cde05470208721e5a23021dd5b25497e347fe704516f3e',
    'padova_400-age5-halt_none-counts': '32e3671e6bdb86fb265775098522e11557572162fa5b3a9a5ddef2bea1b59851',
    'padova_400-age5-halt_all-log': 'd820adee26e2934267cde05470208721e5a23021dd5b25497e347fe704516f3e',
    'padova_400-age5-halt_all-counts': '32e3671e6bdb86fb265775098522e11557572162fa5b3a9a5ddef2bea1b59851',
    'padova_400500-age0-halt_none-log': '31716439e09ef492f0138e06d94ea7c3fcf3efc4aac58d8679f381277da34cb2',
    'padova_400500-age0-halt_none-counts': '4a7831ede8249ac1ddbbb9dd68e5391fc77f077f57d02e6ffcc0d183a02690af',
    'padova_400500-age0-halt_all-counts': '2f7285ab7be185b9453c94e0fc81ead2ccb90082bc7501905d66a2841cd7b79d',
    'padova_400500-age1-halt_none-counts': '4a7831ede8249ac1ddbbb9dd68e5391fc77f077f57d02e6ffcc0d183a02690af',
    'padova_400500-age1-halt_all-counts': '2f7285ab7be185b9453c94e0fc81ead2ccb90082bc7501905d66a2841cd7b79d',
    'padova_400500-age2-halt_none-log': 'c3dc9e7c0445252b335c81ba450059515e5237febad624d003df268af0b7c998',
    'padova_400500-age2-halt_none-counts': '7f4af9b72fe7a3a88ab87928d352f116f5f6dbbb00bf064d58de95b338455516',
    'padova_400500-age2-halt_all-counts': '7f4af9b72fe7a3a88ab87928d352f116f5f6dbbb00bf064d58de95b338455516',
    'padova_400500-age5-halt_none-counts': '3646694741e596b0530d320f44cf4bd478c4b49d9b9c4fdfba6fefb1b456b2bc',
    'padova_400500-age5-halt_all-counts': '3646694741e596b0530d320f44cf4bd478c4b49d9b9c4fdfba6fefb1b456b2bc',
    'freshness-age0-halt_none-log': '1b1335e9a0b4c5dae4d859a09c839611b35c1b8c04590e1758297987035e21d6',
    'freshness-age0-halt_none-counts': 'a6fd7bdaa7d1bc03e348754c289c9ec1a70cf564df52f907f16d8b4b23d1a112',
    'freshness-age0-halt_all-log': '8262d027254f18db11966eb6e49916e9cb2f1f9dd8e6e83efb00fb44d962c940',
    'freshness-age0-halt_all-counts': '9f27082fd101a504fdd15344f0b044baca675aa76ec3965968a905257e8531a9',
    'freshness-age1-halt_none-log': '2d6a1de7b4bfe47ecb55f85e6266cd61b24ae3f07fb13fb3a9f46215d3d92fb5',
    'freshness-age1-halt_none-counts': 'a817a265259a43fff752db41f866048a146939b3f9a4ac44cb5dad8b3eb9c400',
    'freshness-age1-halt_all-log': '4fbfe6a479f3e47d6caa7a35df28ce989c5c4a68162ee679b8db654b89b10b4b',
    'freshness-age1-halt_all-counts': '34a2060500b9595bd9a92da85af0a589c8c6a47ec3a9fabe088a392a0590dbd7',
    'freshness-age2-halt_none-log': 'a9014ea85b5e5a5970cf916e7ccb85ce75eb17e3e86c9dd1dacfeb43aba8b37a',
    'freshness-age2-halt_none-counts': '24a52a7b3483bdd739594f47875fe1b33beab4447aa581367a601b58c1dd3361',
    'freshness-age2-halt_all-log': '0a664355d2d7b4b5b4e0384c05531d9ec260efa7394ebfc8baa218af809fa8ed',
    'freshness-age2-halt_all-counts': '7aa4095d2d75d96f1c1b3f22798a30f510806392ad49c6db069420a8ff577912',
    'freshness-age5-halt_none-log': '24d0314ea7c3e3cc33f4caf2e59f2fd89e3753b17edffcbff49127fafc4cc24c',
    'freshness-age5-halt_none-counts': '694ae3946af4ae6bc8711af5747a8a66fada78d40b8949ee7d7d82d03a5b4b13',
    'freshness-age5-halt_all-log': '9f72fa3015e7a21bbd95ebfd76012b93d48bab5b2c9455b15869747309840209',
    'freshness-age5-halt_all-counts': '27af2fdb8117d70f7605ddd69490186cb0a51fea63039ec5cef4614fe834907b',
    'two_sensors-age0-halt_none-log': '7c4c376a43bb51b5d36e20d2153361710aacc1f9c8bfeeee8c339136df756ee8',
    'two_sensors-age0-halt_none-counts': 'bca4c1ff7e57c2f01e33b165ebe6e24e5a5c298489cb420d90aa8d24f5172a6d',
    'two_sensors-age0-halt_all-log': '9e6fd0a747fda268da1774e30e26a8869ffef37cdad8b850dab2202b8a5a6dde',
    'two_sensors-age0-halt_all-counts': 'e524a7e0117e238f32c8b990ea8bc3ef44f1f6c9baf1719c54f6705cdd49f4f4',
    'two_sensors-age0-halt_level_sensor_1-log': '66e35cacef2199eaf2b28c8f2f34a0bfd3a7182c55aee6b28ed8b030edceef22',
    'two_sensors-age0-halt_level_sensor_1-counts': 'edc31f13c5959be4b4a34c009506819cb6f0a6403a7b4d3c76424f38bc62ea50',
    'two_sensors-age1-halt_none-log': '588a1e484d4e681708c71f808e919306f9b747fe6b7fe6218ad667ee26aaaca2',
    'two_sensors-age1-halt_none-counts': '9a55fb81e1bdb3379b551d36eb2de7aff9e21692136d18500765ebb054fbee6e',
    'two_sensors-age1-halt_all-log': '27155a2741d0691b7f51329edf0634a5c03372059694654510dfb563c9930bb8',
    'two_sensors-age1-halt_all-counts': '4e9c2030173f8fecf22d3fa9192607c3af174acffb34c313d253b07938b45e96',
    'two_sensors-age1-halt_level_sensor_1-log': 'd93a4a25ac2f506b6b58947287403a8420c96da18d5b3179bc90761bacbbb7a2',
    'two_sensors-age1-halt_level_sensor_1-counts': '0d59103eae7515c94b0f9153bafac3fb48f06089f00e09df1954807bb89a7ab5',
    'two_sensors-age2-halt_none-log': 'a71a57f84dcef9d3ed95c228398207b6a7beb15f47e219912aee9d38c10f0428',
    'two_sensors-age2-halt_none-counts': 'bbb115d2c8506c1b5e5f0e9eb5a287005427e8c00b7379f864a104f952cdba24',
    'two_sensors-age2-halt_all-log': 'f88fbf1018d7d3f946ea9b5ff07c646f1d965deaaf8c9af8d954a881fb4c0e56',
    'two_sensors-age2-halt_all-counts': '9f4b4ceef20b6d0cd72819de2d6485c17db9f022bd3e9f3ca7665dfa235f472d',
    'two_sensors-age2-halt_level_sensor_1-log': 'fed90ce77bd18165d4ca4ae7182a1b8c52d10f5dde8a0f4e0461b7221610edd3',
    'two_sensors-age2-halt_level_sensor_1-counts': '07662759412260f13eb0843f779182605c05084de601652a3b3a8c00821b15fa',
    'two_sensors-age5-halt_none-log': '07fe8e7c1f4af8fe959c4eea35526af738db05331d3c6f147829babc1007525d',
    'two_sensors-age5-halt_none-counts': 'ed756e3a85c8ce19774c46c38908f3bf783c6b80743cbb66fd56f8fd4d6da6af',
    'two_sensors-age5-halt_all-log': '1c0d5d1b297156f911cae7ca7ddd3d4704c06eb2cc2640c334ea2acfd901f978',
    'two_sensors-age5-halt_all-counts': 'bfbb22c9cefc54ea9ba095bf21ffc437ee9be371c9ccdceae7ea9ed004947ba6',
    'two_sensors-age5-halt_level_sensor_1-log': '6620d03290a374dafa6fd8b946eff018238ed755dabf090467a44280fff268e6',
    'two_sensors-age5-halt_level_sensor_1-counts': '42b6f59e3fbf276482102ad2e041bb053d474508e565ac130887a959e3d50302',
    'tiny-age0-halt_none-log': 'c24a9f94bd9501eaf42732118d9a820f318b684aa644ca153bcd6d3d67fbb556',
    'tiny-age0-halt_none-counts': '9a2c358e8c1c03069509b5abe0e52a70b071249b668366216ebec6c01f0496c6',
    'tiny-age0-halt_all-log': 'c24a9f94bd9501eaf42732118d9a820f318b684aa644ca153bcd6d3d67fbb556',
    'tiny-age0-halt_all-counts': '9a2c358e8c1c03069509b5abe0e52a70b071249b668366216ebec6c01f0496c6',
    'tiny-age1-halt_none-log': 'c24a9f94bd9501eaf42732118d9a820f318b684aa644ca153bcd6d3d67fbb556',
    'tiny-age1-halt_none-counts': '9a2c358e8c1c03069509b5abe0e52a70b071249b668366216ebec6c01f0496c6',
    'tiny-age1-halt_all-log': 'c24a9f94bd9501eaf42732118d9a820f318b684aa644ca153bcd6d3d67fbb556',
    'tiny-age1-halt_all-counts': '9a2c358e8c1c03069509b5abe0e52a70b071249b668366216ebec6c01f0496c6',
    'tiny-age2-halt_none-log': 'ca5693a42641ab43b7813b7e7fe7d8ff9dd31ceecdcd45516eefe39baa28bb5b',
    'tiny-age2-halt_none-counts': 'b80b93aa9dcda9a6671c93ade1ff2a1571203d427ffd509ddf5c11754cf086fc',
    'tiny-age2-halt_all-log': 'ca5693a42641ab43b7813b7e7fe7d8ff9dd31ceecdcd45516eefe39baa28bb5b',
    'tiny-age2-halt_all-counts': 'b80b93aa9dcda9a6671c93ade1ff2a1571203d427ffd509ddf5c11754cf086fc',
    'tiny-age5-halt_none-log': '9c9aacc9d203f8cb680235d98cbaf224a5ba2a498a07f995f6a48b3ec4758421',
    'tiny-age5-halt_none-counts': '12642eb073540df6594249ec76de28a0826cd360acc6b560f37d2de2d9c1048e',
    'tiny-age5-halt_all-log': '9c9aacc9d203f8cb680235d98cbaf224a5ba2a498a07f995f6a48b3ec4758421',
    'tiny-age5-halt_all-counts': '12642eb073540df6594249ec76de28a0826cd360acc6b560f37d2de2d9c1048e',
    'tiny_drained-age0-halt_none-log': '7a24338ff2483d310020a964a79805f8507b8e6a33b012ffb27a50947e626a4b',
    'tiny_drained-age0-halt_none-counts': 'adb455a50f4c338d315a850714d9042c29ff1004dd1f338f5dc578f2c8d095c2',
    'tiny_drained-age0-halt_all-log': '81cd928806a15b0328846e9c38d5fe5f1fe96b01822bab14dd3e897281e29047',
    'tiny_drained-age0-halt_all-counts': '8debe7c17d6c16cc0b1df5d8f8633f80fc7fe7109894617028b9ccad65a285cc',
    'tiny_drained-age1-halt_none-log': '7a24338ff2483d310020a964a79805f8507b8e6a33b012ffb27a50947e626a4b',
    'tiny_drained-age1-halt_none-counts': 'adb455a50f4c338d315a850714d9042c29ff1004dd1f338f5dc578f2c8d095c2',
    'tiny_drained-age1-halt_all-log': '81cd928806a15b0328846e9c38d5fe5f1fe96b01822bab14dd3e897281e29047',
    'tiny_drained-age1-halt_all-counts': '8debe7c17d6c16cc0b1df5d8f8633f80fc7fe7109894617028b9ccad65a285cc',
    'tiny_drained-age2-halt_none-log': 'c1a36979b5199e6b039534b33a42fc8eb85a27380d83cdb5b7d3db1b32af1c57',
    'tiny_drained-age2-halt_none-counts': '86827a07669b19cfbca096a3d93251b9280fcc0e6b62d222ef746c89fe950b09',
    'tiny_drained-age2-halt_all-log': 'e27a7bf210bce06874bb3a43fcbf16c61c61e977e79f08e4498a4644cc3a083e',
    'tiny_drained-age2-halt_all-counts': '6c769bbf8da025e629d29bfa2e04b40d6f29fa12f993192ffd3767a1ac3adbd7',
    'tiny_drained-age5-halt_none-log': '19c49caa707db532a66c780c7534d0f20ece3e84cc6a8a3a9788cff87f477ee4',
    'tiny_drained-age5-halt_none-counts': '0ca83cace9dc408968ac12f5a9ddf654e420b14781cf04485bd3f27374aab724',
    'tiny_drained-age5-halt_all-log': 'f8eadcb69a9e73bf7583e2ce89b809a31fecf123e97dd6bebb2debb631b27919',
    'tiny_drained-age5-halt_all-counts': 'e46078136e86a58fa098a839c4d2192971f3f5e9be6108ce797285e10a9e8442',
    'alarmed-age0-halt_none-log': '933921952409eeceb9c1750cf99ac3e4eb048fecb3119032fd375a06a806ee4d',
    'alarmed-age0-halt_none-counts': 'df376be9e317944cbd0505d22345272a2c89627039b67a448fdee38052e683ab',
    'alarmed-age0-halt_all-log': '933921952409eeceb9c1750cf99ac3e4eb048fecb3119032fd375a06a806ee4d',
    'alarmed-age0-halt_all-counts': 'df376be9e317944cbd0505d22345272a2c89627039b67a448fdee38052e683ab',
    'alarmed-age1-halt_none-log': '933921952409eeceb9c1750cf99ac3e4eb048fecb3119032fd375a06a806ee4d',
    'alarmed-age1-halt_none-counts': 'df376be9e317944cbd0505d22345272a2c89627039b67a448fdee38052e683ab',
    'alarmed-age1-halt_all-log': '933921952409eeceb9c1750cf99ac3e4eb048fecb3119032fd375a06a806ee4d',
    'alarmed-age1-halt_all-counts': 'df376be9e317944cbd0505d22345272a2c89627039b67a448fdee38052e683ab',
    'alarmed-age2-halt_none-log': 'ad9edf90e9b6b89f8231957104229cbe3ebae006632d1c56f3e762a0487b5b37',
    'alarmed-age2-halt_none-counts': 'ecfc8c7a7594f96dd5b45a50dcdd04e01544a38fd9d31d3242b6998cc13401d2',
    'alarmed-age2-halt_all-log': 'ad9edf90e9b6b89f8231957104229cbe3ebae006632d1c56f3e762a0487b5b37',
    'alarmed-age2-halt_all-counts': 'ecfc8c7a7594f96dd5b45a50dcdd04e01544a38fd9d31d3242b6998cc13401d2',
    'alarmed-age5-halt_none-log': '31ab8522e2fc6fbda16fe7c75412b59b5569d9f22ba0b5f61d58cb715349fb59',
    'alarmed-age5-halt_none-counts': '28c28a9f787d1fcc3475fbe89450e718bd78a7a15b1d3c6d34d80925fa8731f8',
    'alarmed-age5-halt_all-log': '31ab8522e2fc6fbda16fe7c75412b59b5569d9f22ba0b5f61d58cb715349fb59',
    'alarmed-age5-halt_all-counts': '28c28a9f787d1fcc3475fbe89450e718bd78a7a15b1d3c6d34d80925fa8731f8',
    'alarmed_drained-age0-halt_none-log': 'c54481587002ba6dae9e0e11d84bbd0d5bf4c739ccd0b4d130a754f4fddcd9a7',
    'alarmed_drained-age0-halt_none-counts': '738f440073cf9ef707cb13789de80a6724fe089712a5f31a0ae8c48c3ad6280a',
    'alarmed_drained-age0-halt_all-log': '57df012128c369bea445c62cb64feb10abca255cd43c99a694fea13be5c2ea88',
    'alarmed_drained-age0-halt_all-counts': 'a24bfa9feab54f53dc38640db4709795c4372658cc6c437a40d9756112333151',
    'alarmed_drained-age1-halt_none-log': '15ef54686cf1ac501269ff54ff9de74fa8e8672e604e507a629ec7203c0cf074',
    'alarmed_drained-age1-halt_none-counts': '28e555eaae6bce90bdc655baa9b4d56e3d7afd81216eae2ce7639876d1ffbec0',
    'alarmed_drained-age1-halt_all-log': '07f4edd23dd540cc5ac05a9abaea3ac84ecd09370257f30ddf9d224c387d7497',
    'alarmed_drained-age1-halt_all-counts': '02bd2bfc22c4f3426a62982cfb852794dccb7a008d9d308775fa7b1ad304d2bf',
    'alarmed_drained-age2-halt_none-log': '4c8b15f58fb5c8c4635074584c31ba3e3cbb3f5e732a487fbdd062770a040695',
    'alarmed_drained-age2-halt_none-counts': '8c58061ea186e7ec97b828652dbf89b100419a42968811ebb3243cc4bee0f29e',
    'alarmed_drained-age2-halt_all-log': '7b16848c65d370ad9484123b6ad0e92885c09667a947560c2c30a5d116043ca7',
    'alarmed_drained-age2-halt_all-counts': 'cdd66a52ae931e2e6d1b537579fcb9c894fd8b0a78d5207e0b03b44172f4bae0',
    'alarmed_drained-age5-halt_none-log': '1c9390c0fda4d7d86b286c47436ab077b00e0c7123857a85b55ccc1b7624e5c3',
    'alarmed_drained-age5-halt_none-counts': '88365efe013118156037ebcfdf038fe90485970e9e71902d6100d20ba51e3a30',
    'alarmed_drained-age5-halt_all-log': '3acc7db570b42dec05a0f984f579722d1780898b30304dc70b0a1415aad3f4a9',
    'alarmed_drained-age5-halt_all-counts': '7e268aeda563a676a26dac70cc840e21578044825f4f69e25871093ef6f6558d',
}


@pytest.mark.parametrize("case_id", list(_cases()))
def test_golden_digest(case_id):
    assert digest(case_id) == GOLDEN[case_id]


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(_cases())


@pytest.mark.parametrize("case_id", [c for c in _cases() if c.endswith("-log")])
def test_streamed_log_equals_the_collected_one(case_id):
    from iotdraw import FreshnessPolicy, csv_event_sink, run_simulation
    name, age, halt, _ = case_id.split("-")
    options = dict(freshness=FreshnessPolicy(int(age[3:])), halt_on=_halt_sets(name)[halt[5:]])
    collected = run_simulation(_model(name), **options)
    handle = io.StringIO()
    streamed = run_simulation(_model(name), sink=csv_event_sink(handle), **options)
    assert handle.getvalue() == collected.events_csv()
    assert streamed.events == ()
    for attribute in ("counts", "residual_mah", "final_tick"):
        assert getattr(streamed, attribute) == getattr(collected, attribute), attribute


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case!r}: {digest(case)!r},")
