#include "common/atomic_write.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unistd.h>

#include "common/logging.hh"

namespace slip
{

bool
writeFileAtomically(const std::string &path, const std::string &bytes,
                    const char *what)
{
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    try {
        const std::filesystem::path dir =
            std::filesystem::path(path).parent_path();
        if (!dir.empty())
            std::filesystem::create_directories(dir);
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
        out.close();
        if (!out)
            throw std::runtime_error("cannot write '" + tmp + "'");
        std::filesystem::rename(tmp, path);
        return true;
    } catch (const std::exception &e) {
        std::remove(tmp.c_str());
        SLIP_WARN("failed to write ", what, " '", path, "': ", e.what());
        return false;
    }
}

} // namespace slip
